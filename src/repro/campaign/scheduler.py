"""Campaign execution: one scenario body, run under two isolation scopes.

The paper's unit of work is one GA search per (CCA, trace mode, objective).
That unit exists here exactly once, as :meth:`ScenarioEngine.run_scenario`:
build the :class:`CCFuzz`, journal a behavior delta and then a checkpoint
after every evaluated generation, harvest the top-k survivors through the
:class:`InsertLog`, assemble the :class:`ScenarioOutcome` and
journal ``scenario_complete``.  Everything that legitimately differs between
the two ways a campaign isolates its scenarios reaches that body as *data*,
in a :class:`ScenarioScope`:

* the **campaign-wide** scope (:meth:`CampaignRunner.run`, this module) —
  one evaluation cache and one behavior archive shared by every scenario,
  seeds drawn from the *live* corpus, inserts decided against and applied
  to that corpus's memory.  Scenarios run in matrix order, so each one is
  seeded by everything earlier ones found — e.g. winners against Reno seeding the
  CUBIC and BBR searches.  A seed is still simulated afresh: every cache
  key carries its scenario's CCA, simulation and score identities, so a hit
  crosses scenarios only between two conditions with identical parameters;
* the **per-scenario** scope (:mod:`repro.campaign.worker`) — private cache
  and archive, seeds and the "is it new" rule from a snapshot journaled at
  launch, every record stamped with a lease epoch, so scenarios are
  independent and any number of processes can run, die and be stolen from.

The two policies compute different campaigns (beyond a two-scenario matrix
their seeds, corpora and digests differ) and both are kept.  What they share
is the body, the lifecycle around it (:meth:`CampaignRunner._conduct`:
bootstrap, run the matrix, finalize in a ``finally``) and the backend
constructor (:func:`campaign_backend`).

Durability
----------
Every run appends its progress to an append-only
:class:`~repro.journal.CampaignJournal` next to the corpus
(``journal.jsonl``): the campaign spec and archive baseline at start, one
lease per scenario, one behavior-map delta plus fuzzer checkpoint per
evaluated generation, a record for every corpus insert (the corpus files
are their fold, published when the campaign ends), and one completion
record per scenario.  :meth:`CampaignRunner.resume` replays that
log after a crash and continues mid-campaign; the resumed run's corpus,
behavior map and summary digest are bit-identical to an uninterrupted run
with the same seed (the crash-recovery harness in ``tests/crashsim.py``
enforces this under SIGKILL).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Collection, Dict, Iterator, List, Optional, Union

from ..core.fuzzer import CCFuzz, restorable
from ..coverage.archive import BehaviorArchive
from ..exec.backend import EvaluationBackend, create_backend
from ..exec.cache import TraceCache
from ..exec.faults import FaultPolicy
from ..exec.quarantine import QuarantineStore
from ..journal import CampaignJournal, JournalView
from ..obs.telemetry import CampaignTelemetry
from ..scoring.objectives import make_score_function
from ..tcp.cca import cca_factory
from ..traces.trace import PacketTrace
from .corpus import CorpusStore, read_corpus_map
from .spec import CampaignSpec, Scenario

ProgressCallback = Callable[[str], None]

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


def journaled_outcomes(
    spec: CampaignSpec, view: Optional[JournalView]
) -> Dict[str, ScenarioOutcome]:
    """The outcomes of the scenarios of ``spec`` that ``view`` records as complete."""
    completed = view.completed if view is not None else {}
    return {
        scenario.scenario_id: ScenarioOutcome.from_journal_dict(
            scenario, completed[scenario.scenario_id]["outcome"]
        )
        for scenario in spec.expand()
        if scenario.scenario_id in completed
    }


# ---------------------------------------------------------------------- #
# The scenario body and what an isolation policy hands it
# ---------------------------------------------------------------------- #


class InsertLog:
    """Write-ahead corpus inserts: the journal record *is* the insert, and
    :meth:`CorpusStore.fold` publishes them when the campaign ends.

    ``corpus`` is the campaign-wide scope's live corpus: inserts are decided
    against it and applied to its memory, so later scenarios are seeded by
    them.  Fleet workers hold no corpus; they decide "is it new" against
    ``snapshot``, the fingerprints journaled at launch — a rule every worker
    evaluates identically, whatever the corpus holds by then.

    ``prior`` holds the inserts a dead process (or an earlier lease epoch)
    already journaled, scenario key -> fingerprint -> event; a re-run harvest
    replays their recorded intent instead of journaling them again.
    """

    def __init__(
        self,
        corpus: Optional[CorpusStore],
        journal: CampaignJournal,
        *,
        prior: Optional[Dict[str, Dict[str, Dict[str, Any]]]] = None,
        snapshot: Collection[str] = (),
    ) -> None:
        self.corpus = corpus
        self.journal = journal
        self.prior = prior or {}
        self.snapshot = snapshot

    def add(
        self,
        trace: PacketTrace,
        scenario_key: str,
        stamp: Optional[Dict[str, Any]] = None,
        **kwargs: Any,
    ) -> bool:
        """Journal the insert of ``trace`` under ``scenario_key``, then apply
        it; returns True iff it was new."""
        fingerprint = trace.fingerprint()
        prior = self.prior.get(scenario_key, {}).get(fingerprint)
        if prior is not None:       # the corpus applied it when it read the journal
            return bool(prior["new"])

        def journal(data: Dict[str, Any]) -> None:
            self.journal.append(
                "corpus_insert", {"scenario_id": scenario_key, **data, **(stamp or {})}
            )

        if self.corpus is not None:
            return self.corpus.add(trace, journal, **kwargs)
        is_new = fingerprint not in self.snapshot
        journal({"fingerprint": fingerprint, "new": is_new, "rediscoveries_after": None,
                 "entry": dict(kwargs, trace=trace.to_dict())})
        return is_new


@dataclass
class ScenarioScope:
    """What an isolation policy hands the scenario body, as data.

    The marks say how much of the cache's op log and of the archive's touch
    stamps the journal already holds; each journaled delta moves its mark.
    """

    cache: TraceCache
    archive: BehaviorArchive
    inserts: InsertLog
    #: The extra ``scenario_complete`` fields, cut when the record is built.
    completion: Callable[["ScenarioScope"], Dict[str, Any]]
    #: Stamped on every record written under this scope: nothing, or the
    #: ``{lease_epoch, worker}`` that replay fences a stolen lease's zombie by.
    stamp: Dict[str, Any] = field(default_factory=dict)
    #: Runs once a generation's checkpoint is durable (lease heartbeat).
    after_checkpoint: Callable[[], None] = lambda: None
    seeds: List[PacketTrace] = field(default_factory=list)
    #: The fuzzer snapshot to continue from; its population replaces ``seeds``.
    resume_state: Optional[Dict[str, Any]] = None
    cache_mark: int = 0
    cell_mark: int = 0

    def cache_delta(self) -> Dict[str, Any]:
        """The cache touches since the last journaled delta."""
        delta, self.cache_mark = self.cache.delta_since(self.cache_mark)
        return delta


def restore_cache(cache: TraceCache, state: Optional[Dict[str, Any]], warn: ProgressCallback) -> int:
    """Load a journaled op log into ``cache``; returns the mark it reaches."""
    if state is not None:
        try:
            return cache.restore(state)
        except ValueError:
            # A dump from an older outcome schema or journal layout cannot be
            # trusted; resuming cold is still correct, just slower.
            warn("journaled cache dump is stale; resuming with a cold cache")
    return 0


def resume_checkpoint(
    view: Optional[JournalView],
    scenario_id: str,
    cache: TraceCache,
    archive: BehaviorArchive,
    warn: ProgressCallback,
) -> Optional[Dict[str, Any]]:
    """The checkpoint ``scenario_id`` continues from, its behavior deltas up
    to that generation applied to ``archive`` (deltas from earlier lease
    epochs agree: a resumed epoch re-evaluates its first generation
    bit-identically); ``None`` for a fresh start.  A checkpoint naming
    outcomes the restored ``cache`` lacks (a stale dump, a cache smaller than
    the population), or a trace the journal does not hold, is refused: the
    scenario restarts from its seeds."""
    checkpoint = view.checkpoints.get(scenario_id) if view is not None else None
    if checkpoint is None:
        return None
    islands = checkpoint["fuzzer"].get("islands") or []
    if not all(isinstance(payload.get("trace"), dict) for island in islands for payload in island):
        cause = "checkpoint names a trace the journal does not hold"
    elif not restorable(checkpoint["fuzzer"], cache):
        cause = "cache dump is stale"
    else:
        archive.apply_delta(
            *view.behavior_state({scenario_id: checkpoint["generation"]}, scenario_id=scenario_id)
        )
        return checkpoint
    warn(f"[{scenario_id}] journaled {cause}; restarting the scenario from its seeds")
    return None


@contextlib.contextmanager
def campaign_backend(
    spec: CampaignSpec,
    quarantine: QuarantineStore,
    injected: Optional[EvaluationBackend] = None,
) -> Iterator[EvaluationBackend]:
    """The campaign's evaluation backend, closed on exit iff built here.

    An injected backend keeps its own timeout/retry policy (and stays the
    caller's to close), but a campaign always contributes its quarantine
    store so refusals persist and replay, unless the caller installed one.
    """
    if injected is not None:
        if injected.policy.quarantine is None:
            injected.policy.quarantine = quarantine
        yield injected
        return
    backend = create_backend(
        spec.backend,
        spec.workers,
        policy=FaultPolicy(
            job_timeout=spec.job_timeout,
            max_retries=spec.max_retries,
            quarantine=quarantine,
        ),
    )
    try:
        yield backend
    finally:
        backend.close()


@dataclass
class ScenarioEngine:
    """The scenario body plus the per-process collaborators it runs on."""

    campaign: str
    harvest_top_k: int
    journal: CampaignJournal
    backend: EvaluationBackend
    telemetry: CampaignTelemetry
    quarantine: QuarantineStore
    progress: ProgressCallback

    def run_scenario(self, scenario: Scenario, scope: ScenarioScope) -> ScenarioOutcome:
        """One GA search, journaled, harvested and completed under ``scope``."""
        started = time.perf_counter()
        journal = self.journal
        scenario_id = scenario.scenario_id
        # Provenance on every quarantine entry this scenario produces; under
        # a lease the epoch also fences the journaled event on a steal.
        self.quarantine.context = {"scenario_id": scenario_id, **scope.stamp}

        def checkpoint(state: Dict[str, Any]) -> None:
            # The behavior-map delta goes *first*, then the fuzzer checkpoint
            # (with the cache touches since the last one): resume trusts the
            # checkpoint and applies deltas only up to its generation, so a
            # kill between the two appends cannot leave the archive ahead of
            # (or behind) the GA state.
            changed, scope.cell_mark = scope.archive.delta_since(scope.cell_mark)
            journal.append(
                "behavior_delta",
                {
                    "scenario_id": scenario_id,
                    "generation": state["generation"],
                    "cells": changed,
                    "counters": scope.archive.counters(),
                    **scope.stamp,
                },
            )
            # The history goes as its tail: the view folds the whole list.
            journal.append(
                "generation_checkpoint",
                {
                    "scenario_id": scenario_id,
                    "generation": state["generation"],
                    "fuzzer": {**state, "history": state["history"][-1:]},
                    "cache": scope.cache_delta(),
                    **scope.stamp,
                },
            )
            scope.after_checkpoint()

        fuzzer = CCFuzz(
            cca_factory(scenario.cca),
            config=scenario.fuzz_config(),
            score_function=make_score_function(scenario.objective, scenario.mode),
            seed_traces=scope.seeds,
            backend=self.backend,
            cache=scope.cache,
            archive=scope.archive,
        )
        with self.telemetry.scenario_span(scenario):
            result = fuzzer.run(
                progress=lambda stats: self.telemetry.generation(scenario, stats),
                checkpoint=checkpoint,
                resume_from=scope.resume_state,
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
                new_entries += scope.inserts.add(
                    individual.trace,
                    scenario_id,
                    scope.stamp,
                    scenario_id=scenario_id,
                    cca=scenario.cca,
                    objective=scenario.objective,
                    score=individual.fitness,
                    generation_found=individual.generation_born,
                    origin="fuzz",
                    campaign=self.campaign,
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
        journal.append(
            "scenario_complete",
            {
                "scenario_id": scenario_id,
                "outcome": outcome.to_journal_dict(),
                **scope.completion(scope),
                **scope.stamp,
            },
        )
        self.telemetry.scenario_completed(outcome)
        self.progress(
            f"[{scenario_id}] best={outcome.best_fitness:.4f} "
            f"evals={outcome.evaluations} hits={outcome.cache_hits} "
            f"seeds={outcome.seeds_injected} new={outcome.new_corpus_entries} "
            f"cells={outcome.behavior_cells} ({outcome.wall_time_s:.1f}s)"
        )
        return outcome


# ---------------------------------------------------------------------- #
# The campaign lifecycle, and the campaign-wide isolation policy
# ---------------------------------------------------------------------- #


class CampaignRunner:
    """Plans, runs and records a whole campaign of fuzzing scenarios.

    ``archive``, the map it starts from and journals as ``archive_baseline``,
    is by default the corpus's (:func:`~repro.campaign.corpus.read_corpus_map`).
    The fold at finalize publishes the campaign's map.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        corpus: CorpusStore,
        *,
        backend: Optional[EvaluationBackend] = None,
        cache: Optional[TraceCache] = None,
        archive: Optional[BehaviorArchive] = None,
        register_attacks: bool = True,
        harvest_top_k: int = 3,
        progress: Optional[ProgressCallback] = None,
        journal: Optional[CampaignJournal] = None,
        telemetry: Union[CampaignTelemetry, bool] = True,
    ) -> None:
        if harvest_top_k < 1:
            raise ValueError("harvest_top_k must be at least 1")
        self.spec = spec
        self.corpus = corpus
        # One behavior archive spans the whole campaign; coverage accumulates
        # across campaigns like the corpus itself does.
        self.archive = archive if archive is not None else BehaviorArchive.from_dict(
            read_corpus_map(corpus.path, strict=True)[0]
        )
        self.register_attacks = register_attacks
        self.harvest_top_k = harvest_top_k
        self._progress = progress or (lambda message: None)
        self._injected_backend = backend
        self._injected_cache = cache
        # The journal lives in the corpus directory unless an explicit
        # CampaignJournal relocates it.
        if journal is None:
            journal = CampaignJournal(CampaignJournal.corpus_path(corpus.path))
        self._journal = journal
        # Deterministic crashers are refused from the corpus's quarantine on;
        # each new one is a ``job_quarantined`` record first, and the fold
        # publishes quarantine.json with the corpus.
        self.quarantine = QuarantineStore(
            corpus.quarantine.entries(),
            journal_hook=lambda entry: journal.append("job_quarantined", entry),
        )
        # ``telemetry=True`` (the default) streams metrics.jsonl into the
        # corpus directory; pass a configured CampaignTelemetry to add the
        # live --progress line, or False to disable (pure-compute runs,
        # overhead benchmarks).  Telemetry is strictly observational, so the
        # flag never changes results — only whether they are visible.
        if not isinstance(telemetry, CampaignTelemetry):
            telemetry = CampaignTelemetry(corpus.path, enabled=bool(telemetry))
        self._telemetry = telemetry
        self.inserts = InsertLog(corpus, self._journal)
        #: The replayed journal of the interrupted campaign :meth:`run` continues.
        self._resume_view: Optional[JournalView] = None

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
        progress: Optional[ProgressCallback] = None,
        telemetry: Union[CampaignTelemetry, bool] = True,
    ) -> "CampaignRunner":
        """Reconstruct an interrupted campaign from its journal.

        Replays ``<corpus_dir>/journal.jsonl`` into a consistent view, then
        rebuilds: the spec and knobs from the start record, the corpus and its
        quarantine (the files plus the journal's inserts and quarantines,
        read from that one replay), the
        behavior map (:func:`~repro.campaign.corpus.read_corpus_map` of that
        replay, unfinished scenarios held back), every completed scenario's
        outcome, and the in-flight scenario's full GA
        state from its latest generation checkpoint, including the RNG and
        the shared evaluation cache.  The returned runner's :meth:`run` picks
        up exactly where the dead process stopped.
        """
        journal = CampaignJournal(CampaignJournal.corpus_path(corpus_dir))
        view = journal.replay()
        if view.campaign is None:
            raise ValueError(
                f"nothing to resume: no campaign journal under {corpus_dir!r}"
            )
        start = view.campaign
        # An unfinished scenario's deltas wait for :meth:`run`, which applies
        # them up to the checkpoint generation once the checkpoint proves
        # resumable (deltas are journaled *before* their checkpoint, so a
        # trailing one may describe a generation the resumed search
        # re-evaluates), and none when the scenario restarts from scratch.
        limits = {
            scenario_id: -1
            for scenario_id in (*view.leases, *view.checkpoints)
            if scenario_id not in view.completed
        }
        behavior, _ = read_corpus_map(str(corpus_dir), view, limits)
        runner = cls(
            CampaignSpec.from_dict(start["spec"]),
            CorpusStore(str(corpus_dir), lambda: view),
            backend=backend,
            cache=cache,
            archive=BehaviorArchive.from_dict(behavior),
            register_attacks=bool(start.get("register_attacks", True)),
            harvest_top_k=int(start.get("harvest_top_k", 3)),
            progress=progress,
            journal=journal,
            telemetry=telemetry,
        )
        runner._resume_view = view
        # The harvest replays the inserts it journaled already.
        runner.inserts.prior = view.inserts_by_scenario
        return runner

    # ------------------------------------------------------------------ #
    # Lifecycle shared by both isolation policies
    # ------------------------------------------------------------------ #

    def _bootstrap(self, view: Optional[JournalView], start_fields: Dict[str, Any]) -> int:
        """Open the campaign in the journal; returns the builtins registered."""
        scenarios = self.spec.expand()
        journal = self._journal
        self._progress(
            f"campaign {self.spec.name!r}: {len(scenarios)} scenarios "
            f"({len(self.spec.ccas)} CCAs x {len(self.spec.modes)} modes x "
            f"{len(self.spec.objectives)} objectives x {len(self.spec.conditions)} conditions)"
        )
        if view is not None:
            inflight = view.pending_checkpoints()
            journal.append(
                "campaign_resume",
                {
                    "campaign": self.spec.name,
                    "completed": sorted(view.completed),
                    "inflight": sorted(inflight),
                },
            )
            self._progress(
                f"resuming: {len(view.completed)}/{len(scenarios)} scenarios "
                f"already complete, {len(inflight)} checkpointed mid-run"
            )
        else:
            # A journal holding a previous campaign_start records a
            # *different* campaign over this corpus; archive it so this
            # run's log replays standalone — once the files hold its
            # inserts, its map and its quarantine.
            self.corpus.fold()
            journal.rotate()
            journal.append(
                "campaign_start",
                {
                    "campaign": self.spec.name,
                    "spec": self.spec.to_dict(),
                    "harvest_top_k": self.harvest_top_k,
                    "register_attacks": self.register_attacks,
                    "archive_baseline": self.archive.to_dict(),
                    **start_fields,
                },
            )
        attacks_registered = 0
        if self.register_attacks:
            # On resume, registration may have been cut off mid-way: the
            # insert log replays already-journaled builtins idempotently and
            # journals the rest fresh, so the count matches an uninterrupted
            # run no matter where the crash landed.
            from ..attacks import builtin_attack_traces

            for name, trace in builtin_attack_traces(self.spec.budget.duration).items():
                attacks_registered += self.inserts.add(
                    trace,
                    f"builtin/{name}",
                    scenario_id=f"builtin/{name}",
                    origin="builtin",
                    campaign=self.spec.name,
                )
            self._progress(f"registered {attacks_registered} builtin attack traces")
        self._telemetry.campaign_started(
            self.spec, resumed=view is not None, completed=view.completed if view else ()
        )
        return attacks_registered

    def _conduct(
        self,
        execute: Callable[[], "tuple[Dict[str, ScenarioOutcome], Dict[str, Any]]"],
        view: Optional[JournalView] = None,
        **start_fields: Any,
    ) -> CampaignResult:
        """Bootstrap, run the matrix through ``execute``, finalize.

        ``view`` is the replayed journal when an interrupted campaign is
        being continued.  ``execute`` returns the outcomes by scenario id
        (with ``self.archive`` holding the campaign's map) and the cache
        statistics to report.
        """
        started = time.perf_counter()
        executed = False
        try:
            try:
                attacks_registered = self._bootstrap(view, start_fields)
                outcome_by_id, cache_stats = execute()
                executed = True
            finally:
                # Fold the corpus and the behavior map even if a scenario
                # failed mid-campaign.  Only a matrix that ran to the end has
                # applied every journaled insert and may mark the fold.
                self.corpus.fold(mark=executed, archive=self.archive, quarantine=self.quarantine)
                self._journal.close()
            result = CampaignResult(
                spec=self.spec,
                outcomes=[
                    outcome_by_id[scenario.scenario_id]
                    for scenario in self.spec.expand()
                    if scenario.scenario_id in outcome_by_id
                ],
                corpus_stats=self.corpus.stats(),
                cache_stats=cache_stats,
                wall_time_s=time.perf_counter() - started,
                attacks_registered=attacks_registered,
                coverage=self.archive.coverage(),
            )
            self._telemetry.campaign_completed(
                self.spec, result=result, resumed=view is not None
            )
            return result
        finally:
            # After campaign_completed on success; on a failure path it just
            # flushes and closes the half-written telemetry stream (readers
            # tolerate that by design).
            self._telemetry.close()

    def _scenario_seeds(self, scenario: Scenario) -> List[PacketTrace]:
        return self.corpus.seeds_for(
            scenario.mode,
            scenario.budget.duration,
            self.spec.seed_limit,
            objective=scenario.objective,
            bottleneck_rate_mbps=scenario.condition.bottleneck_rate_mbps,
        )

    # ------------------------------------------------------------------ #
    # The campaign-wide scope
    # ------------------------------------------------------------------ #

    def run(self) -> CampaignResult:
        """Execute every scenario and return the campaign summary."""
        return self._conduct(self._run_matrix, self._resume_view)

    def _run_matrix(self) -> "tuple[Dict[str, ScenarioOutcome], Dict[str, Any]]":
        """Run the unfinished scenarios, in matrix order, under one scope.

        Later scenarios see (and are seeded by) everything earlier ones put
        into the corpus — and, with coverage guidance, every cell earlier
        scenarios opened in the shared archive.
        """
        view = self._resume_view
        scenarios = self.spec.expand()
        cache = self._injected_cache
        if cache is None:
            population = self.spec.budget.population_size * self.spec.budget.islands
            cache = TraceCache(max_entries=max(8192, 8 * population * len(scenarios)))
        scope = ScenarioScope(
            cache=cache,
            archive=self.archive,
            inserts=self.inserts,
            completion=lambda scope: {"cache": scope.cache_delta()},
            cache_mark=restore_cache(
                cache, view.cache_state if view is not None else None, self._progress
            ),
            cell_mark=self.archive.mark,
        )
        outcome_by_id = journaled_outcomes(self.spec, view)
        with campaign_backend(self.spec, self.quarantine, self._injected_backend) as backend:
            engine = ScenarioEngine(
                self.spec.name, self.harvest_top_k, self._journal, backend,
                self._telemetry, self.quarantine, self._progress,
            )
            for scenario in scenarios:
                if scenario.scenario_id in outcome_by_id:
                    self._progress(f"[{scenario.scenario_id}] already complete (journal)")
                    continue
                # A checkpointed scenario restores its population (seeds
                # included) from the snapshot; only fresh starts draw seeds
                # from the corpus.
                checkpoint = resume_checkpoint(
                    view, scenario.scenario_id, cache, self.archive, self._progress
                )
                scope.resume_state = checkpoint["fuzzer"] if checkpoint is not None else None
                scope.seeds = [] if checkpoint is not None else self._scenario_seeds(scenario)
                scope.cell_mark = self.archive.mark
                self._journal.append(
                    "scenario_lease",
                    {
                        "scenario_id": scenario.scenario_id,
                        "seed": scenario.seed,
                        "campaign": self.spec.name,
                    },
                )
                outcome_by_id[scenario.scenario_id] = engine.run_scenario(scenario, scope)
        return outcome_by_id, dict(cache.stats())
