"""Campaign execution: run every scenario over one shared evaluation pool.

The runner expands a :class:`CampaignSpec` into its scenario matrix and
drives each scenario's :class:`CCFuzz` search with

* **one shared** :class:`EvaluationBackend` — a process pool is created once
  and reused by every scenario instead of being torn down per run, and
* **one shared, thread-safe** :class:`TraceCache` — a trace already scored
  against a CCA/config in one scenario is never re-simulated by another.

With ``max_parallel > 1`` scenarios run on coordinator threads that submit
their generation batches to the shared pool concurrently, so the pool keeps
working while any one scenario does its (cheap, GIL-bound) GA bookkeeping —
the worker processes never idle between scenarios.

Each scenario is seeded from the corpus (curated builtin attacks plus the
best traces earlier scenarios discovered — e.g. winners against Reno seeding
the CUBIC and BBR searches) and its top-k survivors are harvested back into
the corpus with full provenance.  Individual scenario results are
deterministic functions of the injected seeds: serial campaigns (the
default) are fully reproducible end to end, while parallel campaigns draw
seeds from the corpus snapshot taken at launch so the schedule's
interleaving cannot change what any scenario sees.

Durability
----------
Unless journaling is disabled, every run appends its progress to an
append-only :class:`~repro.journal.CampaignJournal` next to the corpus
(``journal.jsonl``): the campaign spec and archive baseline at start, one
lease per scenario, one fuzzer checkpoint plus behavior-map delta per
evaluated generation (serial campaigns), a write-ahead record for every
corpus insert, and one completion record per scenario.  :meth:`resume`
replays that log after a crash and continues mid-campaign; for serial
campaigns the resumed run's corpus, behavior map and summary digest are
bit-identical to an uninterrupted run with the same seed (the crash-recovery
harness in ``tests/crashsim.py`` enforces this under SIGKILL).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from threading import RLock
from typing import Any, Callable, Dict, List, Optional, Union

from ..core.fuzzer import CCFuzz
from ..coverage.archive import BehaviorArchive
from ..exec.backend import EvaluationBackend, create_backend
from ..exec.cache import TraceCache
from ..exec.faults import FaultPolicy
from ..exec.quarantine import QuarantineStore
from ..journal import CampaignJournal, JournalView
from ..obs.metrics import get_registry
from ..obs.telemetry import CampaignTelemetry
from ..scoring.objectives import make_score_function
from ..tcp.cca import cca_factory
from ..traces.trace import PacketTrace
from .corpus import CorpusStore
from .spec import CampaignSpec, Scenario

ProgressCallback = Callable[[str], None]

#: Corpus-insert provenance fields that ride along in the journal WAL.
_INSERT_KWARGS = (
    "scenario_id",
    "cca",
    "objective",
    "score",
    "generation_found",
    "origin",
    "campaign",
    "condition",
    "derived_from",
    "triage",
    "behavior",
)


@dataclass
class ScenarioOutcome:
    """What one scenario of the matrix produced."""

    scenario: Scenario
    best_fitness: float
    best_fingerprint: str
    evaluations: int                       #: simulations actually run (cache misses)
    cache_hits: int
    seeds_injected: int
    new_corpus_entries: int
    converged_generation: int
    wall_time_s: float
    behavior_cells: int = 0                #: archive cells this scenario opened

    def summary_row(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario.scenario_id,
            "best_fitness": self.best_fitness,
            "evaluations": self.evaluations,
            "cache_hits": self.cache_hits,
            "seeds": self.seeds_injected,
            "new_entries": self.new_corpus_entries,
            "cells": self.behavior_cells,
            "generations": self.converged_generation + 1,
            "wall_s": round(self.wall_time_s, 2),
        }

    def to_journal_dict(self) -> Dict[str, Any]:
        """The JSON-safe fields a ``scenario_complete`` record carries."""
        return {
            "best_fitness": self.best_fitness,
            "best_fingerprint": self.best_fingerprint,
            "evaluations": self.evaluations,
            "cache_hits": self.cache_hits,
            "seeds_injected": self.seeds_injected,
            "new_corpus_entries": self.new_corpus_entries,
            "converged_generation": self.converged_generation,
            "wall_time_s": self.wall_time_s,
            "behavior_cells": self.behavior_cells,
        }

    @classmethod
    def from_journal_dict(cls, scenario: Scenario, payload: Dict[str, Any]) -> "ScenarioOutcome":
        return cls(
            scenario=scenario,
            best_fitness=float(payload["best_fitness"]),
            best_fingerprint=str(payload["best_fingerprint"]),
            evaluations=int(payload["evaluations"]),
            cache_hits=int(payload["cache_hits"]),
            seeds_injected=int(payload["seeds_injected"]),
            new_corpus_entries=int(payload["new_corpus_entries"]),
            converged_generation=int(payload["converged_generation"]),
            wall_time_s=float(payload["wall_time_s"]),
            behavior_cells=int(payload.get("behavior_cells", 0)),
        )


@dataclass
class CampaignResult:
    """Outcome of a whole campaign run."""

    spec: CampaignSpec
    outcomes: List[ScenarioOutcome]
    corpus_stats: Dict[str, Any]
    cache_stats: Dict[str, Any]
    wall_time_s: float = 0.0
    attacks_registered: int = 0
    #: Campaign-level behavior-coverage statistics (the shared archive).
    coverage: Dict[str, Any] = field(default_factory=dict)

    def summary_rows(self) -> List[Dict[str, Any]]:
        return [outcome.summary_row() for outcome in self.outcomes]

    def deterministic_digest(self) -> str:
        """Stable digest of the per-scenario summary rows.

        Wall-clock fields are excluded — they differ between any two runs —
        so two campaigns with the same seed over the same corpus digest
        equal, which is what the resume-equivalence tests pin.
        """
        rows = []
        for row in self.summary_rows():
            row = dict(row)
            row.pop("wall_s", None)
            rows.append(row)
        canonical = json.dumps(rows, sort_keys=True, separators=(",", ":"))
        return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "scenarios": self.summary_rows(),
            "corpus": dict(self.corpus_stats),
            "cache": dict(self.cache_stats),
            "coverage": dict(self.coverage),
            "wall_time_s": round(self.wall_time_s, 2),
            "attacks_registered": self.attacks_registered,
            "total_evaluations": sum(o.evaluations for o in self.outcomes),
            "total_cache_hits": sum(o.cache_hits for o in self.outcomes),
        }


class CampaignRunner:
    """Plans, schedules and records a whole campaign of fuzzing runs."""

    def __init__(
        self,
        spec: CampaignSpec,
        corpus: CorpusStore,
        *,
        backend: Optional[EvaluationBackend] = None,
        cache: Optional[TraceCache] = None,
        archive: Optional[BehaviorArchive] = None,
        max_parallel: int = 1,
        register_attacks: bool = True,
        harvest_top_k: int = 3,
        progress: Optional[ProgressCallback] = None,
        journal: Union[CampaignJournal, bool] = True,
        telemetry: Union[CampaignTelemetry, bool] = True,
    ) -> None:
        if max_parallel < 1:
            raise ValueError("max_parallel must be at least 1")
        if harvest_top_k < 1:
            raise ValueError("harvest_top_k must be at least 1")
        if max_parallel > 1 and cache is not None and not cache.thread_safe:
            raise ValueError(
                "an injected cache must be TraceCache(thread_safe=True) when "
                "max_parallel > 1 (scenario threads share it)"
            )
        self.spec = spec
        self.corpus = corpus
        # One behavior archive spans the whole campaign; a pre-existing
        # behavior_map.json next to the corpus is resumed so coverage
        # accumulates across campaigns like the corpus itself does.  Serial
        # campaigns thread it straight through every scenario; parallel
        # campaigns give each scenario a private archive and merge afterwards
        # (see run()), keeping results independent of thread interleaving.
        if archive is not None:
            self.archive = archive
        else:
            map_path = BehaviorArchive.corpus_path(corpus.path)
            self.archive = (
                BehaviorArchive.load(map_path) if os.path.exists(map_path) else BehaviorArchive()
            )
        self.max_parallel = max_parallel
        self.register_attacks = register_attacks
        self.harvest_top_k = harvest_top_k
        self._progress = progress or (lambda message: None)
        self._injected_backend = backend
        self._injected_cache = cache
        # ``journal=True`` (the default) journals into the corpus directory;
        # pass an explicit CampaignJournal to relocate it, or False to run
        # without durability (in-memory corpora, micro-benchmarks).
        if journal is True:
            self._journal: Optional[CampaignJournal] = CampaignJournal(
                CampaignJournal.corpus_path(corpus.path)
            )
        elif journal is False or journal is None:
            self._journal = None
        else:
            self._journal = journal
        # ``telemetry=True`` (the default) streams metrics.jsonl into the
        # corpus directory; pass a configured CampaignTelemetry to add the
        # live --progress line, or False to disable (pure-compute runs,
        # overhead benchmarks).  Telemetry is strictly observational, so the
        # flag never changes results — only whether they are visible.
        # Deterministic crashers are quarantined next to the corpus, with the
        # journal as write-ahead log: the hook appends a ``job_quarantined``
        # event before quarantine.json is rewritten, so resume and fleet
        # workers replay the same refusals no matter where a crash landed.
        journal_hook: Optional[Callable[[Dict[str, Any]], None]] = None
        if self._journal is not None:
            owned_journal = self._journal
            journal_hook = lambda entry: owned_journal.append("job_quarantined", entry)
        self.quarantine = QuarantineStore.for_corpus(corpus.path, journal_hook=journal_hook)
        if telemetry is True:
            self._telemetry = CampaignTelemetry(corpus.path)
        elif telemetry is False or telemetry is None:
            self._telemetry = CampaignTelemetry(corpus.path, enabled=False)
        else:
            self._telemetry = telemetry
        self._insert_lock = RLock()
        # Replayed ``corpus_insert`` events: scenario key -> fingerprint ->
        # event payload.  Populated on resume so a re-run harvest replays the
        # journaled intent instead of re-journaling it.
        self._journaled_inserts: Dict[str, Dict[str, Dict[str, Any]]] = {}
        #: Journaled rediscoveries whose corpus entry had vanished (pruned or
        #: partial corpus dir) and were re-applied as fresh inserts instead.
        self.insert_warnings = 0
        #: The archive touch stamp the journaled ``behavior_delta``s reach.
        self._cell_mark = 0
        self._resuming = False
        self._resume_completed: Dict[str, Dict[str, Any]] = {}
        self._resume_inflight: Dict[str, Dict[str, Any]] = {}
        self._resume_cache_state: Optional[Dict[str, Any]] = None
        #: How much of the shared cache's op log the journal already holds.
        self._cache_mark = 0
        self._parallel_baseline: Optional[BehaviorArchive] = None

    # ------------------------------------------------------------------ #
    # Resume
    # ------------------------------------------------------------------ #

    @classmethod
    def resume(
        cls,
        corpus_dir: str,
        *,
        backend: Optional[EvaluationBackend] = None,
        cache: Optional[TraceCache] = None,
        max_parallel: int = 1,
        progress: Optional[ProgressCallback] = None,
        telemetry: Union[CampaignTelemetry, bool] = True,
    ) -> "CampaignRunner":
        """Reconstruct an interrupted campaign from its journal.

        Replays ``<corpus_dir>/journal.jsonl`` into a consistent view, then
        rebuilds: the spec and knobs from the start record, the corpus (the
        insert WAL is re-applied idempotently, repairing writes the crash cut
        off), the behavior archive (baseline + journaled deltas), every
        completed scenario's outcome, and — for a serial campaign — the
        in-flight scenario's full GA state from its latest generation
        checkpoint, including the RNG and the shared evaluation cache.  The
        returned runner's :meth:`run` picks up exactly where the dead process
        stopped.
        """
        journal = CampaignJournal(CampaignJournal.corpus_path(corpus_dir))
        view = journal.replay()
        if view.campaign is None:
            raise ValueError(
                f"nothing to resume: no campaign journal under {corpus_dir!r}"
            )
        start = view.campaign
        spec = CampaignSpec.from_dict(start["spec"])
        corpus = CorpusStore(str(corpus_dir))
        runner = cls(
            spec,
            corpus,
            backend=backend,
            cache=cache,
            archive=BehaviorArchive.from_dict(start["archive_baseline"]),
            max_parallel=max_parallel,
            register_attacks=bool(start.get("register_attacks", True)),
            harvest_top_k=int(start.get("harvest_top_k", 3)),
            progress=progress,
            journal=journal,
            telemetry=telemetry,
        )
        runner._prepare_resume(view, start)
        return runner

    def _prepare_resume(self, view: JournalView, start: Dict[str, Any]) -> None:
        self._resuming = True
        self._resume_completed = dict(view.completed)
        self._resume_inflight = view.pending_checkpoints()
        self._resume_cache_state = view.cache_state
        # 1. Corpus repair: re-apply the insert WAL in journal order.  Every
        #    apply is idempotent, so events whose corpus write survived the
        #    crash are no-ops and the one the crash cut off is completed.
        for data in view.inserts:
            self._apply_insert_event(data)
        self._journaled_inserts = {
            scenario_key: dict(by_fingerprint)
            for scenario_key, by_fingerprint in view.inserts_by_scenario.items()
        }
        # Quarantine repair mirrors the corpus WAL: re-apply journaled
        # ``job_quarantined`` events idempotently, completing any
        # quarantine.json write the crash cut off mid-flight.
        for entry in view.quarantined:
            self.quarantine.apply_event(entry)
        # 2. Behavior archive: the constructor seeded ``self.archive`` with
        #    the journaled baseline; fold the deltas back in.  The in-flight
        #    scenario's deltas apply only up to its checkpoint generation
        #    (deltas are journaled *before* their checkpoint, so a trailing
        #    one may describe a generation the resumed search re-evaluates);
        #    scenarios restarting from scratch contribute nothing.
        limits = {
            scenario_id: checkpoint["generation"]
            for scenario_id, checkpoint in self._resume_inflight.items()
        }
        for scenario_id in view.leases:
            if scenario_id not in view.completed and scenario_id not in limits:
                limits[scenario_id] = -1
        cells, counters = view.behavior_state(generation_limits=limits)
        self.archive.apply_delta(cells, counters)
        # 3. Parallel campaigns checkpoint no generations; their completed
        #    scenarios carry private-archive snapshots instead, merged here
        #    exactly the way an uninterrupted run's finally-block would.
        self._parallel_baseline = BehaviorArchive.from_dict(start["archive_baseline"])
        for scenario in self.spec.expand():
            payload = view.completed.get(scenario.scenario_id)
            if payload is not None and payload.get("archive") is not None:
                self.archive.merge(
                    BehaviorArchive.from_dict(payload["archive"]),
                    baseline=self._parallel_baseline,
                )

    # ------------------------------------------------------------------ #
    # Corpus bootstrap
    # ------------------------------------------------------------------ #

    def _register_builtin_attacks(self) -> int:
        """Insert the hand-crafted attack library as curated corpus entries."""
        from ..attacks import builtin_attack_traces

        added = 0
        for name, trace in builtin_attack_traces(self.spec.budget.duration).items():
            added += self._journaled_add(
                trace,
                f"builtin/{name}",
                scenario_id=f"builtin/{name}",
                origin="builtin",
                campaign=self.spec.name,
            )
        return added

    # ------------------------------------------------------------------ #
    # Journaled (write-ahead) corpus inserts
    # ------------------------------------------------------------------ #

    def _journaled_add(self, trace: PacketTrace, scenario_key: str, **kwargs: Any) -> bool:
        """Write-ahead corpus insert; returns True iff the trace was new.

        The intended insert is journaled (and fsync'd) *before* the corpus is
        touched, so a crash between the two is replayed forward on resume —
        the corpus can only ever lag the journal, never diverge from it.  On
        a resumed run, inserts already journaled by the dead process replay
        their recorded intent instead of being journaled again.
        """
        journal = self._journal
        if journal is None:
            return self.corpus.add(trace, **kwargs)
        fingerprint = trace.fingerprint()
        with self._insert_lock:
            prior = self._journaled_inserts.get(scenario_key, {}).get(fingerprint)
            if prior is not None:
                self._apply_insert_event(prior)
                return bool(prior["new"])
            is_new = fingerprint not in self.corpus
            rediscoveries_after: Optional[int] = None
            if not is_new and kwargs.get("origin", "fuzz") not in ("builtin", "triage"):
                rediscoveries_after = self.corpus.get(fingerprint).rediscoveries + 1
            entry = {key: kwargs[key] for key in _INSERT_KWARGS if key in kwargs}
            entry["trace"] = trace.to_dict()
            journal.append(
                "corpus_insert",
                {
                    "scenario_id": scenario_key,
                    "fingerprint": fingerprint,
                    "new": is_new,
                    "rediscoveries_after": rediscoveries_after,
                    "entry": entry,
                },
            )
            return self.corpus.add(trace, **kwargs)

    def _apply_insert_event(self, data: Dict[str, Any]) -> None:
        """Idempotently apply one journaled ``corpus_insert`` to the corpus.

        * a ``new`` insert is applied only if the fingerprint is still absent;
        * a rediscovery is applied only while the stored entry's counter is
          below the journaled post-insert value;
        * a rediscovery whose corpus entry is *missing* (hand-pruned corpus
          dir, partial copy, journal merged from another machine) degrades to
          applying the insert as new, counted in ``insert_warnings`` —
          resume must repair such corpora, not crash on them;
        * a duplicate builtin/triage registration is a no-op (as it was live).
        """
        fingerprint = data["fingerprint"]
        entry = data["entry"]
        kwargs = {key: entry[key] for key in _INSERT_KWARGS if key in entry and entry[key] is not None}
        trace = PacketTrace.from_dict(entry["trace"])
        with self._insert_lock:
            if data["new"]:
                if fingerprint not in self.corpus:
                    self.corpus.add(trace, **kwargs)
            elif data.get("rediscoveries_after") is not None:
                if fingerprint not in self.corpus:
                    self.insert_warnings += 1
                    get_registry().inc("campaign.insert_warnings")
                    self.corpus.add(trace, **kwargs)
                elif self.corpus.get(fingerprint).rediscoveries < data["rediscoveries_after"]:
                    self.corpus.add(trace, **kwargs)

    # ------------------------------------------------------------------ #
    # Scenario execution
    # ------------------------------------------------------------------ #

    def _make_checkpoint(
        self, scenario: Scenario, cache: Optional[TraceCache]
    ) -> Optional[Callable[[Dict[str, Any]], None]]:
        """Per-generation journal hook (serial campaigns only).

        Appends the behavior-map delta *first*, then the fuzzer checkpoint
        (with the cache touches since the last one): resume trusts the
        checkpoint and applies deltas only up to its generation, so a kill
        between the two appends cannot leave the archive ahead of (or
        behind) the GA state.
        """
        journal = self._journal
        if journal is None or self.max_parallel != 1:
            return None

        def checkpoint(state: Dict[str, Any]) -> None:
            changed, self._cell_mark = self.archive.delta_since(self._cell_mark)
            journal.append(
                "behavior_delta",
                {
                    "scenario_id": scenario.scenario_id,
                    "generation": state["generation"],
                    "cells": changed,
                    "counters": self.archive.counters(),
                },
            )
            payload: Dict[str, Any] = {
                "scenario_id": scenario.scenario_id,
                "generation": state["generation"],
                "fuzzer": state,
            }
            if cache is not None:
                payload["cache"], self._cache_mark = cache.delta_since(self._cache_mark)
            journal.append("generation_checkpoint", payload)

        return checkpoint

    def _run_scenario(
        self,
        scenario: Scenario,
        backend: EvaluationBackend,
        cache: Optional[TraceCache],
        seeds: List[PacketTrace],
        archive: BehaviorArchive,
        resume_state: Optional[Dict[str, Any]] = None,
    ) -> ScenarioOutcome:
        started = time.perf_counter()
        journal = self._journal
        parallel = self.max_parallel > 1
        if not parallel:
            # Serial campaigns stamp scenario provenance into new quarantine
            # entries.  Parallel campaigns interleave scenarios on one shared
            # store, so entries stay unstamped rather than mis-stamped.
            self.quarantine.context = {"scenario_id": scenario.scenario_id}
        if journal is not None:
            journal.append(
                "scenario_lease",
                {
                    "scenario_id": scenario.scenario_id,
                    "seed": scenario.seed,
                    "campaign": self.spec.name,
                },
            )
        fuzzer = CCFuzz(
            cca_factory(scenario.cca),
            config=scenario.fuzz_config(),
            score_function=make_score_function(scenario.objective, scenario.mode),
            seed_traces=seeds,
            backend=backend,
            cache=cache,
            archive=archive,
        )
        with self._telemetry.scenario_span(scenario):
            result = fuzzer.run(
                progress=lambda stats: self._telemetry.generation(scenario, stats),
                checkpoint=self._make_checkpoint(scenario, cache),
                resume_from=resume_state["fuzzer"] if resume_state is not None else None,
            )
            new_entries = 0
            harvested: set = set()
            for individual in result.top_individuals(self.harvest_top_k):
                if not individual.is_evaluated:
                    continue
                fingerprint = individual.trace.fingerprint()
                if fingerprint in harvested:
                    continue
                harvested.add(fingerprint)
                behavior = individual.result_summary.get("behavior_signature")
                new_entries += self._journaled_add(
                    individual.trace,
                    scenario.scenario_id,
                    scenario_id=scenario.scenario_id,
                    cca=scenario.cca,
                    objective=scenario.objective,
                    score=individual.fitness,
                    generation_found=individual.generation_born,
                    origin="fuzz",
                    campaign=self.spec.name,
                    condition=scenario.condition.to_dict(),
                    behavior=dict(behavior) if isinstance(behavior, dict) else None,
                )
        outcome = ScenarioOutcome(
            scenario=scenario,
            best_fitness=result.best_fitness,
            best_fingerprint=result.best_trace.fingerprint(),
            evaluations=result.total_evaluations,
            cache_hits=result.cache_hits,
            seeds_injected=len(result.seed_fingerprints),
            new_corpus_entries=new_entries,
            converged_generation=result.converged_generation,
            wall_time_s=time.perf_counter() - started,
            behavior_cells=result.behavior_cells,
        )
        if journal is not None:
            payload: Dict[str, Any] = {
                "scenario_id": scenario.scenario_id,
                "outcome": outcome.to_journal_dict(),
            }
            if parallel:
                # Parallel scenarios mutate a private archive; its snapshot
                # rides in the completion record so resume can merge it the
                # way run()'s finally-block does.
                payload["archive"] = archive.to_dict()
            elif cache is not None:
                payload["cache"], self._cache_mark = cache.delta_since(self._cache_mark)
            journal.append("scenario_complete", payload)
        self._telemetry.scenario_completed(outcome)
        self._progress(
            f"[{scenario.scenario_id}] best={outcome.best_fitness:.4f} "
            f"evals={outcome.evaluations} hits={outcome.cache_hits} "
            f"seeds={outcome.seeds_injected} new={outcome.new_corpus_entries} "
            f"cells={outcome.behavior_cells} ({outcome.wall_time_s:.1f}s)"
        )
        return outcome

    def _scenario_seeds(self, scenario: Scenario) -> List[PacketTrace]:
        return self.corpus.seeds_for(
            scenario.mode,
            scenario.budget.duration,
            self.spec.seed_limit,
            objective=scenario.objective,
            bottleneck_rate_mbps=scenario.condition.bottleneck_rate_mbps,
        )

    # ------------------------------------------------------------------ #
    # Main entry point
    # ------------------------------------------------------------------ #

    def run(self) -> CampaignResult:
        """Execute every scenario and return the campaign summary."""
        try:
            return self._run_impl()
        finally:
            # After campaign_completed on success; on a failure path it just
            # flushes and closes the half-written telemetry stream (readers
            # tolerate that by design).
            self._telemetry.close()

    def _run_impl(self) -> CampaignResult:
        started = time.perf_counter()
        scenarios = self.spec.expand()
        journal = self._journal
        self._progress(
            f"campaign {self.spec.name!r}: {len(scenarios)} scenarios "
            f"({len(self.spec.ccas)} CCAs x {len(self.spec.modes)} modes x "
            f"{len(self.spec.objectives)} objectives x {len(self.spec.conditions)} conditions)"
        )
        attacks_registered = 0
        if self._resuming:
            if journal is not None:
                journal.append(
                    "campaign_resume",
                    {
                        "campaign": self.spec.name,
                        "completed": sorted(self._resume_completed),
                        "inflight": sorted(self._resume_inflight),
                    },
                )
            self._progress(
                f"resuming: {len(self._resume_completed)}/{len(scenarios)} scenarios "
                f"already complete, {len(self._resume_inflight)} checkpointed mid-run"
            )
            if self.register_attacks:
                # Registration may have been cut off mid-way; _journaled_add
                # replays already-journaled builtins idempotently and journals
                # the rest fresh, so the returned count matches an
                # uninterrupted run no matter where the crash landed.
                attacks_registered = self._register_builtin_attacks()
        else:
            if journal is not None:
                # A journal holding a previous campaign_start records a
                # *different* campaign over this corpus; archive it so this
                # run's log replays standalone.
                journal.rotate()
                journal.append(
                    "campaign_start",
                    {
                        "campaign": self.spec.name,
                        "spec": self.spec.to_dict(),
                        "harvest_top_k": self.harvest_top_k,
                        "register_attacks": self.register_attacks,
                        "max_parallel": self.max_parallel,
                        "archive_baseline": self.archive.to_dict(),
                    },
                )
            if self.register_attacks:
                attacks_registered = self._register_builtin_attacks()
                self._progress(f"registered {attacks_registered} builtin attack traces")
        self._telemetry.campaign_started(
            self.spec, resumed=self._resuming, completed=self._resume_completed
        )

        if self._injected_backend is not None:
            backend = self._injected_backend
            # An injected backend keeps its own timeout/retry policy, but a
            # campaign always contributes its quarantine store so refusals
            # persist and replay, unless the caller installed one themselves.
            if backend.policy.quarantine is None:
                backend.policy.quarantine = self.quarantine
        else:
            backend = create_backend(
                self.spec.backend,
                self.spec.workers,
                policy=FaultPolicy(
                    job_timeout=self.spec.job_timeout,
                    max_retries=self.spec.max_retries,
                    quarantine=self.quarantine,
                ),
            )
        owns_backend = self._injected_backend is None
        cache = self._injected_cache
        if cache is None:
            population = self.spec.budget.population_size * self.spec.budget.islands
            cache = TraceCache(
                max_entries=max(8192, 8 * population * len(scenarios)),
                thread_safe=True,
            )
        if self._resume_cache_state is not None and cache is not None:
            try:
                self._cache_mark = cache.restore(self._resume_cache_state)
            except ValueError:
                # A dump from an older outcome schema or journal layout
                # cannot be trusted; resuming cold is still correct, just
                # slower.
                self._progress("journaled cache dump is stale; resuming with a cold cache")
        self._cell_mark = self.archive.mark

        outcome_by_id: Dict[str, ScenarioOutcome] = {}
        pending: List[Scenario] = []
        for scenario in scenarios:
            completed = self._resume_completed.get(scenario.scenario_id)
            if completed is not None:
                outcome_by_id[scenario.scenario_id] = ScenarioOutcome.from_journal_dict(
                    scenario, completed["outcome"]
                )
                self._progress(f"[{scenario.scenario_id}] already complete (journal)")
            else:
                pending.append(scenario)
        scenario_archives: List[BehaviorArchive] = []
        archive_baseline: Optional[BehaviorArchive] = None
        try:
            if self.max_parallel == 1:
                # Serial: later scenarios see (and are seeded by) everything
                # earlier scenarios put into the corpus — and, with coverage
                # guidance, every cell earlier scenarios opened in the shared
                # archive.
                for scenario in pending:
                    resume_state = self._resume_inflight.get(scenario.scenario_id)
                    # A checkpointed scenario restores its population (seeds
                    # included) from the snapshot; only fresh starts draw
                    # seeds from the corpus.
                    seeds = [] if resume_state is not None else self._scenario_seeds(scenario)
                    outcome_by_id[scenario.scenario_id] = self._run_scenario(
                        scenario, backend, cache, seeds, self.archive,
                        resume_state=resume_state,
                    )
            else:
                # Parallel: seeds come from the corpus snapshot at launch so
                # thread interleaving cannot change any scenario's inputs.
                # Each scenario likewise runs on its *own* snapshot of the
                # campaign archive (novelty/elites guidance read the archive
                # during selection, so a concurrently-mutated shared archive
                # would make results depend on thread interleaving); the
                # snapshots are merged back baseline-aware in matrix order.
                # A resumed parallel campaign snapshots the *journaled*
                # baseline, so pending scenarios start from the same archive
                # they would have seen uninterrupted.
                seed_snapshot = [self._scenario_seeds(scenario) for scenario in pending]
                archive_baseline = (
                    self._parallel_baseline.snapshot()
                    if self._parallel_baseline is not None and self._resuming
                    else self.archive.snapshot()
                )
                scenario_archives = [archive_baseline.snapshot() for _ in pending]
                with ThreadPoolExecutor(
                    max_workers=min(self.max_parallel, max(1, len(pending))),
                    thread_name_prefix="repro-campaign",
                ) as pool:
                    for scenario, outcome in zip(
                        pending,
                        pool.map(
                            lambda args: self._run_scenario(*args),
                            (
                                (scenario, backend, cache, seeds, archive)
                                for scenario, seeds, archive in zip(
                                    pending, seed_snapshot, scenario_archives
                                )
                            ),
                        ),
                    ):
                        outcome_by_id[scenario.scenario_id] = outcome
        finally:
            if owns_backend:
                backend.close()
            # Merge and persist the behavior map even if a scenario failed
            # mid-campaign: completed scenarios already wrote their corpus
            # entries (and mutated their archives in place), and the coverage
            # CLI and future campaigns resume the map from here.
            for archive in scenario_archives:
                self.archive.merge(archive, baseline=archive_baseline)
            self.archive.save(BehaviorArchive.corpus_path(self.corpus.path))
            if journal is not None:
                journal.close()
        outcomes = [
            outcome_by_id[scenario.scenario_id]
            for scenario in scenarios
            if scenario.scenario_id in outcome_by_id
        ]
        result = CampaignResult(
            spec=self.spec,
            outcomes=outcomes,
            corpus_stats=self.corpus.stats(),
            cache_stats=dict(cache.stats()),
            wall_time_s=time.perf_counter() - started,
            attacks_registered=attacks_registered,
            coverage=self.archive.coverage(),
        )
        self._telemetry.campaign_completed(
            self.spec, result=result, resumed=self._resuming
        )
        return result
