"""Campaign telemetry: the glue between the scheduler and the sinks.

One :class:`CampaignTelemetry` instance rides along with a
:class:`~repro.campaign.scheduler.CampaignRunner`.  The runner calls plain
observer hooks at phase boundaries (campaign start/end, scenario start/end,
every evaluated generation); the telemetry object turns them into

* ``metrics.jsonl`` records (plus throttled full registry snapshots),
* one span per scenario with its counter attribution,
* an optional single-line live progress report on stderr,
* and, at campaign end, a final snapshot and ``run_manifest.json``.

Everything here is strictly observational: hooks read counters the search
already maintains and write to files the search never reads, so a campaign
with telemetry enabled is bit-identical to one without (the golden
bit-identity test pins this).  A disabled instance turns every hook into a
no-op so call sites never branch.
"""

from __future__ import annotations

import contextlib
import time
from typing import IO, Any, Dict, Iterable, Optional

from .manifest import build_manifest, write_manifest
from .metrics import get_registry
from .sinks import MetricsJsonlSink
from .spans import PhaseTracer


class CampaignTelemetry:
    """Streams one campaign's telemetry into its corpus directory."""

    def __init__(
        self,
        corpus_dir: str,
        *,
        enabled: bool = True,
        progress_stream: Optional[IO[str]] = None,
        worker_id: Optional[str] = None,
    ) -> None:
        self.enabled = enabled
        self.corpus_dir = str(corpus_dir)
        #: Fleet worker identity stamped into every emitted record (``worker``
        #: field), so ``repro-campaign status`` can render per-worker rows.
        self.worker_id = worker_id
        self._progress_stream = progress_stream
        self._started_at: Optional[float] = None
        self._scenario_totals: Dict[str, int] = {}
        self._completed = 0
        self._total_scenarios = 0
        self._baseline_evals = 0.0
        self._started_clock = 0.0
        self._progress_dirty = False
        self._sink: Optional[MetricsJsonlSink] = None
        if enabled:
            self._sink = MetricsJsonlSink(self.corpus_dir)
            self.tracer: Optional[PhaseTracer] = PhaseTracer(on_close=self._span_closed)
        else:
            self.tracer = None

    # ------------------------------------------------------------------ #
    # Hooks the scheduler calls
    # ------------------------------------------------------------------ #

    def campaign_started(
        self,
        spec,
        *,
        resumed: bool = False,
        completed: Iterable[str] = (),
    ) -> None:
        if not self.enabled:
            return
        scenarios = spec.expand()
        completed = sorted(completed)
        self._started_at = time.time()
        self._started_clock = time.monotonic()
        self._total_scenarios = len(scenarios)
        self._completed = len(completed)
        self._baseline_evals = get_registry().counter("fuzzer.evaluations")
        for scenario in scenarios:
            self._scenario_totals[scenario.scenario_id] = scenario.budget.generations
        assert self._sink is not None
        self._emit(
            "campaign_resume" if resumed else "campaign_start",
            {
                "campaign": spec.name,
                "scenarios": [s.scenario_id for s in scenarios],
                "generations_per_scenario": {
                    s.scenario_id: s.budget.generations for s in scenarios
                },
                "completed": completed,
            },
        )

    def scenario_span(self, scenario):
        """Context manager wrapping one scenario's execution."""
        if not self.enabled:
            return contextlib.nullcontext()
        assert self._sink is not None
        self._emit(
            "scenario_state",
            {"scenario": scenario.scenario_id, "state": "running"},
        )
        assert self.tracer is not None
        return self.tracer.span("scenario", scenario.scenario_id)

    def generation(self, scenario, stats) -> None:
        """Per-generation observer (wired as the fuzzer's progress hook)."""
        if not self.enabled:
            return
        assert self._sink is not None
        self._emit(
            "generation",
            {
                "scenario": scenario.scenario_id,
                "generation": stats.generation,
                "generations_total": self._scenario_totals.get(scenario.scenario_id),
                "best_fitness": stats.best_fitness,
                "evaluations": stats.evaluations,
                "cache_hits": stats.cache_hits,
                "cells": stats.behavior_cells,
            },
        )
        self._sink.maybe_snapshot(get_registry())
        self._emit_progress(scenario, stats)

    def scenario_completed(self, outcome) -> None:
        if not self.enabled:
            return
        self._completed += 1
        assert self._sink is not None
        self._emit(
            "scenario_state",
            {
                "scenario": outcome.scenario.scenario_id,
                "state": "complete",
                "outcome": outcome.summary_row(),
            },
        )

    def campaign_completed(self, spec, result=None, *, resumed: bool = False) -> None:
        """Final flush: last snapshot, completion record, manifest."""
        if not self.enabled:
            return
        self._clear_progress_line()
        assert self._sink is not None and self.tracer is not None
        self._sink.maybe_snapshot(get_registry(), force=True)
        self._emit(
            "campaign_complete",
            {
                "campaign": spec.name,
                "scenarios_completed": self._completed,
                "phases": self.tracer.summary(),
            },
        )
        write_manifest(
            build_manifest(spec, result=result, started_at=self._started_at, resumed=resumed),
            self.corpus_dir,
        )

    def _emit(self, record_type: str, payload: Dict[str, Any]) -> None:
        assert self._sink is not None
        if self.worker_id is not None:
            payload = dict(payload)
            payload["worker"] = self.worker_id
        self._sink.emit(record_type, payload)

    def close(self) -> None:
        """Idempotent; the scheduler's finally-block calls this."""
        self._clear_progress_line()
        if self._sink is not None:
            self._sink.close()

    # ------------------------------------------------------------------ #
    # Live progress line
    # ------------------------------------------------------------------ #

    def _emit_progress(self, scenario, stats) -> None:
        stream = self._progress_stream
        if stream is None:
            return
        elapsed = time.monotonic() - self._started_clock
        evals = get_registry().counter("fuzzer.evaluations") - self._baseline_evals
        rate = evals / elapsed if elapsed > 0 else 0.0
        total = self._scenario_totals.get(scenario.scenario_id)
        total_text = f"/{total}" if total else ""
        line = (
            f"[{scenario.scenario_id}] "
            f"scenario {self._completed + 1}/{self._total_scenarios} "
            f"gen {stats.generation + 1}{total_text} "
            f"best={stats.best_fitness:.4f} "
            f"evals={int(evals)} ({rate:.1f}/s) cells={stats.behavior_cells}"
        )
        if stream.isatty():
            # One live line, redrawn in place; padded so a shorter update
            # fully overwrites the previous one.
            stream.write("\r" + line.ljust(100))
            self._progress_dirty = True
        else:
            stream.write(line + "\n")
        stream.flush()

    def _clear_progress_line(self) -> None:
        stream = self._progress_stream
        if stream is not None and self._progress_dirty:
            stream.write("\n")
            stream.flush()
            self._progress_dirty = False

    # ------------------------------------------------------------------ #
    # Span sink
    # ------------------------------------------------------------------ #

    def _span_closed(self, record: Dict[str, Any]) -> None:
        if self._sink is not None:
            self._emit("span", record)
