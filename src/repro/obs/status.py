"""Campaign status: fold a ``metrics.jsonl`` stream into a live view.

``repro-campaign status <corpus-dir>`` renders this while a campaign runs
(or after it finished): throughput, cache hit rate, coverage growth, ETA
and per-scenario progress, all derived purely from the telemetry stream —
the status reader never touches the journal, corpus or any state the
search mutates, so polling it cannot perturb a running campaign.  Each
file goes through its one tolerant reader, so a torn or garbage artifact
degrades a field to ``None``/empty; nothing here raises on what it finds.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .manifest import read_manifest
from .sinks import METRICS_FILENAME, latest_snapshot, prometheus_text, tail_metrics_records

#: The exec layer's fault counters ``status`` shows (registry ``exec.<name>``).
_FAULT_COUNTERS = (
    "failures", "retries", "timeouts", "quarantined", "quarantine_hits",
    "worker_restarts", "serial_fallbacks",
)


def _num(record: Any, key: str, default: Any = 0) -> Any:
    """``record[key]`` when it is a finite JSON number (a ``bool`` is not),
    else ``default``.

    The one way a numeric field is read: a missing, wrong-typed or
    non-finite value folds as its default, the way a torn line does.
    """
    value = record.get(key) if isinstance(record, dict) else None
    if type(value) is int or (type(value) is float and math.isfinite(value)):
        return value
    return default


def _of(record: Any, key: str, kind: type) -> Any:
    """``record[key]`` when it is a ``kind`` (``dict`` or ``list``), else an empty one."""
    value = record.get(key) if isinstance(record, dict) else None
    return value if isinstance(value, kind) else kind()


def _rate(delta_value: float, delta_t: float) -> Optional[float]:
    if delta_t <= 0:
        return None
    return delta_value / delta_t


def _attach_artifacts(status: Dict[str, Any], corpus_dir: Path) -> Dict[str, Any]:
    """The one shared shaping step for on-disk run artifacts.

    Both the CLI renderer and the dashboard's ``/api/status`` consume the
    dict this produces, so manifest presence, the result digest and the
    quarantine count can never diverge between the two front ends.  The
    manifest is the current run's only when it names the run's campaign and
    was finished at or after the run started; an earlier run's is not shown.
    """
    manifest = read_manifest(corpus_dir)
    started_at = status.get("started_at")
    if manifest is not None and (
        manifest.get("campaign") != status.get("campaign")
        or started_at is not None and _num(manifest, "finished_at", -math.inf) < started_at
    ):
        manifest = None
    status["manifest"] = manifest
    status["manifest_present"] = manifest is not None
    status["result_digest"] = ((manifest or {}).get("result") or {}).get(
        "deterministic_digest"
    )
    # The entries on disk (the last fold's), through the corpus reader's own
    # parser; a status poll never parses the journal.  Imported here because
    # ``exec`` imports :mod:`repro.obs.metrics`.
    from ..exec.quarantine import QUARANTINE_FILENAME, read_quarantine_entries

    status["quarantine_entries"] = len(read_quarantine_entries(corpus_dir / QUARANTINE_FILENAME))
    return status


def collect_status(corpus_dir: Union[str, Path]) -> Dict[str, Any]:
    """Fold the corpus dir's telemetry stream into one status dict.

    Reads the whole stream; keep a :class:`StatusWatcher` to poll a live
    campaign without re-reading it every time.
    """
    return StatusWatcher(corpus_dir).poll()


def _current_run(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The slice of ``records`` from the latest campaign start/resume on."""
    for index in range(len(records) - 1, 0, -1):
        if records[index]["type"] in ("campaign_start", "campaign_resume"):
            return records[index:]
    return records


def fold_status(
    records: List[Dict[str, Any]], corpus_dir: Union[str, Path]
) -> Dict[str, Any]:
    """Fold already-read telemetry records into one status dict.

    Only records from the *latest* ``campaign_start``/``campaign_resume``
    onwards count (the stream accumulates across campaigns like the corpus
    does).  Tolerates a mid-write stream: the reader skips torn lines and
    every field degrades to ``None``/empty rather than raising.
    """
    corpus_dir = Path(corpus_dir)
    records = _current_run(records)

    status: Dict[str, Any] = {
        "corpus_dir": str(corpus_dir),
        "campaign": None,
        "state": "unknown",
        "resumed": False,
        "started_at": None,
        "updated_at": None,
        "elapsed_s": None,
        "scenarios": {},
        "scenarios_total": 0,
        "scenarios_completed": 0,
        "evaluations": 0,
        "cache_hits": 0,
        "cache_hit_rate": None,
        "evals_per_sec": None,
        "evals_per_sec_recent": None,
        "sim_events": 0,
        "events_per_sec_recent": None,
        "behavior_cells": 0,
        "progress_fraction": None,
        "eta_s": None,
        "manifest": None,
        "manifest_present": False,
        "result_digest": None,
        "quarantine_entries": 0,
        "journal_bytes": {},
        "journal_trace_bytes": 0,
        "journal_trace_refs": 0,
        "journal_bytes_scanned": 0,
        "journal_read_amplification": None,
        "faults": dict.fromkeys(_FAULT_COUNTERS, 0),
    }
    if not records:
        return _attach_artifacts(status, corpus_dir)

    generations_total: Dict[str, int] = {}
    scenarios: Dict[str, Dict[str, Any]] = {}
    snapshots: List[Dict[str, Any]] = []
    started_at: Optional[float] = None

    for record in records:
        rtype = record["type"]
        if rtype in ("campaign_start", "campaign_resume"):
            status["campaign"] = record.get("campaign")
            status["state"] = "running"
            status["resumed"] = rtype == "campaign_resume"
            started_at = _num(record, "t", None)
            per_scenario = _of(record, "generations_per_scenario", dict)
            generations_total = {
                k: int(v) for k in per_scenario if (v := _num(per_scenario, k, None)) is not None
            }
            for scenario_id in map(str, _of(record, "scenarios", list)):
                scenarios[scenario_id] = {
                    "state": "pending",
                    "generation": 0,
                    "generations_total": generations_total.get(scenario_id),
                    "best_fitness": None,
                    "evaluations": 0,
                    "cache_hits": 0,
                    "cells": 0,
                }
            for scenario_id in map(str, _of(record, "completed", list)):
                if scenario_id in scenarios:
                    scenarios[scenario_id]["state"] = "complete"
        elif rtype == "scenario_state":
            entry = scenarios.setdefault(str(record.get("scenario")), {})
            entry["state"] = record.get("state", "running")
            outcome = _of(record, "outcome", dict)
            if outcome:
                entry["generation"] = int(_num(outcome, "generations"))
                entry["best_fitness"] = outcome.get("best_fitness")
                entry["evaluations"] = int(_num(outcome, "evaluations"))
                entry["cache_hits"] = int(_num(outcome, "cache_hits"))
                entry["cells"] = int(_num(outcome, "cells"))
        elif rtype == "generation":
            entry = scenarios.setdefault(str(record.get("scenario")), {"state": "running"})
            entry["generation"] = int(_num(record, "generation", -1)) + 1
            entry.setdefault(
                "generations_total",
                generations_total.get(str(record.get("scenario"))),
            )
            entry["best_fitness"] = record.get("best_fitness")
            entry["evaluations"] = entry.get("evaluations", 0) + int(_num(record, "evaluations"))
            entry["cache_hits"] = entry.get("cache_hits", 0) + int(_num(record, "cache_hits"))
            entry["cells"] = int(_num(record, "cells", entry.get("cells", 0)))
        elif rtype == "metrics":
            snapshots.append(record)
        elif rtype == "campaign_complete":
            status["state"] = "complete"
        status["updated_at"] = _num(record, "t", status["updated_at"])

    status["started_at"] = started_at
    status["scenarios"] = scenarios
    status["scenarios_total"] = len(scenarios)
    status["scenarios_completed"] = sum(
        1 for entry in scenarios.values() if entry.get("state") == "complete"
    )
    status["evaluations"] = sum(e.get("evaluations", 0) for e in scenarios.values())
    status["cache_hits"] = sum(e.get("cache_hits", 0) for e in scenarios.values())
    lookups = status["evaluations"] + status["cache_hits"]
    if lookups:
        status["cache_hit_rate"] = status["cache_hits"] / lookups
    status["behavior_cells"] = sum(e.get("cells", 0) for e in scenarios.values())

    now = time.time() if status["state"] == "running" else status["updated_at"]
    if started_at is not None and now is not None:
        status["elapsed_s"] = max(0.0, now - started_at)
        status["evals_per_sec"] = _rate(status["evaluations"], status["elapsed_s"])

    # Recent rates from the last two registry snapshots of this run.
    if len(snapshots) >= 2:
        last, prev = snapshots[-1], snapshots[-2]
        dt = _num(last, "t") - _num(prev, "t")
        last_counters = _of(_of(last, "registry", dict), "counters", dict)
        prev_counters = _of(_of(prev, "registry", dict), "counters", dict)
        status["evals_per_sec_recent"] = _rate(
            _num(last_counters, "fuzzer.evaluations") - _num(prev_counters, "fuzzer.evaluations"),
            dt,
        )
        status["events_per_sec_recent"] = _rate(
            _num(last_counters, "sim.events") - _num(prev_counters, "sim.events"), dt
        )
    registry = latest_snapshot(records)
    if registry is not None:
        counters = _of(registry, "counters", dict)
        status["sim_events"] = int(_num(counters, "sim.events"))
        # Where the journal's bytes went, by record type (cumulative over
        # the process that wrote the snapshot, like every registry counter).
        prefix = "journal.bytes."
        status["journal_bytes"] = {
            name[len(prefix):]: int(value)
            for name in counters
            if name.startswith(prefix) and (value := _num(counters, name, None)) is not None
        }
        # The trace tables are a part of those bytes, not a record type; the
        # traces named by digest instead of carried are what they saved.
        status["journal_trace_bytes"] = status["journal_bytes"].pop("traces", 0)
        status["journal_trace_refs"] = int(_num(counters, "journal.trace_refs"))
        # Read amplification: journal bytes this process parsed per byte it
        # appended: 0 for a fresh campaign (it never reads its own log),
        # under 1 for a resume.
        scanned = _num(counters, "journal.bytes_scanned")
        written = _num(counters, "journal.bytes")
        status["journal_bytes_scanned"] = int(scanned)
        status["journal_read_amplification"] = scanned / written if written else None
        # Fault-tolerance counters from the exec layer (see repro.exec):
        # cumulative over the process, like every registry counter.
        status["faults"] = {
            name: int(_num(counters, f"exec.{name}")) for name in _FAULT_COUNTERS
        }

    # Progress and ETA from generation completion across the matrix.
    total_generations = sum(
        entry.get("generations_total") or 0 for entry in scenarios.values()
    )
    if total_generations:
        done = 0
        for entry in scenarios.values():
            budget = entry.get("generations_total") or 0
            if entry.get("state") == "complete":
                done += budget
            else:
                done += min(entry.get("generation", 0), budget)
        fraction = done / total_generations
        status["progress_fraction"] = fraction
        if (
            status["state"] == "running"
            and 0 < fraction < 1
            and status["elapsed_s"]
        ):
            status["eta_s"] = status["elapsed_s"] * (1 - fraction) / fraction
    if status["state"] == "complete":
        status["progress_fraction"] = 1.0
        status["eta_s"] = 0.0

    return _attach_artifacts(status, corpus_dir)


class StatusWatcher:
    """Poll a live campaign's status with incremental stream reads.

    Used by both ``repro-campaign status`` and the dashboard's
    ``/api/status`` and ``/metrics`` endpoints: each :meth:`poll` or
    :meth:`prometheus` reads only the bytes appended to ``metrics.jsonl``
    since the previous call (it carries the byte offset
    :func:`~repro.obs.sinks.tail_metrics_records` returns).  Records before
    the latest ``campaign_start``/``campaign_resume`` are dropped as they are
    superseded, so memory stays bounded by the current run.
    """

    def __init__(self, corpus_dir: Union[str, Path]) -> None:
        self.corpus_dir = Path(corpus_dir)
        self._stream = self.corpus_dir / METRICS_FILENAME
        self._offset = 0
        self._records: List[Dict[str, Any]] = []

    def _advance(self) -> None:
        new_records, offset = tail_metrics_records(self._stream, self._offset)
        if offset < self._offset:
            self._records = []             # the stream was replaced under us
        self._offset = offset
        self._records = _current_run(self._records + new_records)

    def poll(self) -> Dict[str, Any]:
        """Return the current status dict (same shape as :func:`collect_status`)."""
        self._advance()
        return fold_status(self._records, self.corpus_dir)

    def prometheus(self) -> Optional[str]:
        """The current run's latest ``metrics`` record as Prometheus text
        (``None`` without a well-formed one): the one reader behind ``status
        --prometheus`` and ``/metrics``.  It tails the stream, folding nothing."""
        self._advance()
        snapshot = latest_snapshot(self._records)
        try:
            return prometheus_text(snapshot) if snapshot is not None else None
        except (KeyError, TypeError, ValueError, AttributeError):
            return None


def _fmt_rate(value: Optional[float], unit: str = "/s") -> str:
    if value is None:
        return "n/a"
    if value >= 10000:
        return f"{value / 1000:.1f}k{unit}"
    return f"{value:.1f}{unit}"


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "n/a"
    if value >= 3600:
        return f"{value / 3600:.1f}h"
    if value >= 60:
        return f"{value / 60:.1f}m"
    return f"{value:.0f}s"


def _fmt_bytes(value: float) -> str:
    if value >= 1e6:
        return f"{value / 1e6:.1f} MB"
    if value >= 1e3:
        return f"{value / 1e3:.1f} KB"
    return f"{value:.0f} B"


def format_status(status: Dict[str, Any]) -> str:
    """Human-readable render of :func:`collect_status`."""
    if status.get("campaign") is None:
        return (
            f"no campaign telemetry under {status.get('corpus_dir', '?')} "
            "(missing or empty metrics.jsonl)"
        )
    lines: List[str] = []
    resumed = " (resumed)" if status.get("resumed") else ""
    lines.append(
        f"campaign {status['campaign']!r} — {str(status['state']).upper()}{resumed}, "
        f"elapsed {_fmt_seconds(status.get('elapsed_s'))}"
    )
    fraction = status.get("progress_fraction")
    progress = f"{fraction:.0%}" if fraction is not None else "n/a"
    lines.append(
        f"scenarios: {status['scenarios_completed']}/{status['scenarios_total']} complete, "
        f"progress {progress}, ETA {_fmt_seconds(status.get('eta_s'))}"
    )
    hit_rate = status.get("cache_hit_rate")
    hit_text = f"{hit_rate:.1%}" if hit_rate is not None else "n/a"
    lines.append(
        f"evals: {status['evaluations']} simulated "
        f"({_fmt_rate(status.get('evals_per_sec'))} overall, "
        f"{_fmt_rate(status.get('evals_per_sec_recent'))} recent), "
        f"cache hit rate {hit_text}"
    )
    lines.append(
        f"sim: {status['sim_events']} events "
        f"({_fmt_rate(status.get('events_per_sec_recent'), ' ev/s')} recent), "
        f"behavior cells +{status['behavior_cells']}"
    )
    journal_bytes = status.get("journal_bytes") or {}
    if journal_bytes:
        by_type = sorted(journal_bytes.items(), key=lambda item: (-item[1], item[0]))
        amplification = status.get("journal_read_amplification")
        lines.append(
            f"journal: {_fmt_bytes(sum(journal_bytes.values()))} — "
            + ", ".join(f"{name} {_fmt_bytes(size)}" for name, size in by_type)
            + f"; trace tables {_fmt_bytes(status.get('journal_trace_bytes', 0))}, "
            f"{status.get('journal_trace_refs', 0)} traces by reference"
            + (
                f"; read back {amplification:.2f}x "
                f"({_fmt_bytes(status.get('journal_bytes_scanned', 0))} scanned)"
                if amplification is not None
                else ""
            )
        )
    faults = status.get("faults") or {}
    if any(faults.values()):
        # Only shown when something actually failed: a healthy campaign's
        # status looks exactly as it did before fault tolerance existed.
        lines.append(
            f"faults: {faults.get('failures', 0)} failed "
            f"({faults.get('timeouts', 0)} timeouts), "
            f"{faults.get('retries', 0)} retried, "
            f"{faults.get('quarantined', 0)} quarantined "
            f"({faults.get('quarantine_hits', 0)} refusals), "
            f"{faults.get('worker_restarts', 0)} workers restarted"
        )
    if status.get("quarantine_entries"):
        lines.append(f"quarantine: {status['quarantine_entries']} entries on disk")
    if status.get("manifest_present"):
        digest = status.get("result_digest")
        lines.append(
            f"manifest: present, result digest {digest if digest else 'n/a'}"
        )
    scenarios = status.get("scenarios", {})
    if scenarios:
        lines.append("")
        width = max(len(scenario_id) for scenario_id in scenarios)
        header = f"  {'scenario'.ljust(width)}  state     gen    best        evals  cells"
        lines.append(header)
        for scenario_id in sorted(scenarios):
            entry = scenarios[scenario_id]
            total = entry.get("generations_total")
            gen = f"{entry.get('generation', 0)}/{total}" if total else str(
                entry.get("generation", 0)
            )
            best = entry.get("best_fitness")
            best_text = f"{best:.4f}" if isinstance(best, (int, float)) else "-"
            lines.append(
                f"  {scenario_id.ljust(width)}  "
                f"{str(entry.get('state', '?')).ljust(8)}  "
                f"{gen.ljust(5)}  {best_text.ljust(10)}  "
                f"{str(entry.get('evaluations', 0)).ljust(5)}  "
                f"{entry.get('cells', 0)}"
            )
    return "\n".join(lines)


def status_json(status: Dict[str, Any]) -> str:
    return json.dumps(status, indent=1, sort_keys=True)
