"""Campaign execution: every scenario of the matrix, one after another.

The paper's unit of work is one GA search per (CCA, trace mode, objective).
That unit exists here exactly once, as :meth:`CampaignRunner._run_scenario`:
build the :class:`CCFuzz`, journal a behavior delta and then a checkpoint
after every evaluated generation, harvest the top-k survivors as journaled
corpus inserts, assemble the :class:`ScenarioOutcome` and journal
``scenario_complete``.

A campaign has one policy.  One evaluation backend, one trace cache and one
behavior archive serve every scenario; seeds are drawn from the *live*
corpus, and inserts are decided against and applied to that corpus's
memory.  Scenarios run in matrix order, so each one is seeded by everything
earlier ones found — e.g. winners against Reno seeding the CUBIC and BBR
searches.  A seed is still simulated afresh: every cache key carries its
scenario's CCA, simulation and score identities, so a hit crosses scenarios
only between two conditions with identical parameters.  Parallelism lives
inside a generation: ``"backend": "process"`` evaluates each population on
a pool of worker processes (:mod:`repro.exec`), with the same results as the
serial backend.

Durability
----------
Every run appends its progress to an append-only
:class:`~repro.journal.log.CampaignJournal` next to the corpus
(``journal.jsonl``): the campaign spec and archive baseline at start, one
lease per scenario, one behavior-map delta plus fuzzer checkpoint per
evaluated generation, a record for every corpus insert (the corpus files
are their fold, published when the campaign ends), and one completion
record per scenario.  :meth:`CampaignRunner.resume` replays that
log after a crash and continues mid-campaign; the resumed run's corpus,
behavior map and summary digest are bit-identical to an uninterrupted run
with the same seed (the crash-recovery harness in ``tests/crashsim.py``
enforces this under SIGKILL, for either backend).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

from ..core.fuzzer import CCFuzz, restorable
from ..coverage.archive import BehaviorArchive
from ..exec.backend import EvaluationBackend, create_backend
from ..exec.cache import TraceCache
from ..exec.faults import FaultPolicy
from ..exec.quarantine import QuarantineStore
from ..journal.log import CampaignJournal
from ..journal.view import JournalView
from ..obs.telemetry import CampaignTelemetry
from ..scoring.objectives import make_score_function
from ..tcp.cca import cca_factory
from ..traces.trace import PacketTrace
from .corpus import CorpusStore, read_corpus_map
from .spec import CampaignSpec, Scenario

ProgressCallback = Callable[[str], None]

#: How many of each scenario's top traces a campaign stores in the corpus.
HARVEST_TOP_K = 3

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
    behavior_cells: int                    #: archive cells this scenario opened

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
    wall_time_s: float
    attacks_registered: int
    #: Campaign-level behavior-coverage statistics (the shared archive).
    coverage: Dict[str, Any]

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
# Resume and the backend
# ---------------------------------------------------------------------- #


def resume_checkpoint(
    view: Optional[JournalView],
    scenario_id: str,
    cache: TraceCache,
    archive: BehaviorArchive,
    warn: ProgressCallback,
) -> Optional[Dict[str, Any]]:
    """The checkpoint ``scenario_id`` continues from, its behavior deltas up
    to that generation applied to ``archive`` (deltas an earlier run wrote
    past it agree: a resumed run re-evaluates its first generation
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


# ---------------------------------------------------------------------- #
# The campaign runner
# ---------------------------------------------------------------------- #


class CampaignRunner:
    """Plans, runs and records a whole campaign of fuzzing scenarios.

    With ``register_attacks`` (``--no-attacks`` clears it) the builtin
    attacks of :mod:`repro.attacks` are registered as curated corpus entries
    at the start of each run, so every scenario can be seeded with them.

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
        harvest_top_k: int = HARVEST_TOP_K,
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
        #: The replayed journal of the interrupted campaign :meth:`run` continues.
        self._resume_view: Optional[JournalView] = None
        #: The inserts a dead run already journaled, scenario key ->
        #: fingerprint -> event; a re-run harvest replays their recorded
        #: intent instead of journaling them again.
        self._prior_inserts: Dict[str, Dict[str, Dict[str, Any]]] = {}

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
            CampaignSpec.from_journal(start["spec"]),
            CorpusStore(str(corpus_dir), lambda: view),
            backend=backend,
            cache=cache,
            archive=BehaviorArchive.from_dict(behavior),
            register_attacks=bool(start.get("register_attacks", True)),
            harvest_top_k=int(start.get("harvest_top_k", HARVEST_TOP_K)),
            progress=progress,
            journal=journal,
            telemetry=telemetry,
        )
        runner._resume_view = view
        runner._prior_inserts = view.inserts_by_scenario
        return runner

    # ------------------------------------------------------------------ #
    # The lifecycle: bootstrap, the matrix, the fold
    # ------------------------------------------------------------------ #

    def _bootstrap(self, view: Optional[JournalView]) -> int:
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
            journal.append(
                "campaign_start",
                {
                    "campaign": self.spec.name,
                    "spec": self.spec.to_dict(),
                    "harvest_top_k": self.harvest_top_k,
                    "register_attacks": self.register_attacks,
                    "archive_baseline": self.archive.to_dict(),
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
                attacks_registered += self._insert(
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

    def run(self) -> CampaignResult:
        """Execute every unfinished scenario and return the campaign summary.

        The corpus and the behavior map are folded even if a scenario
        failed mid-campaign; only a matrix that ran to the end has applied
        every journaled insert and may mark the fold.
        """
        view = self._resume_view
        started = time.perf_counter()
        opened = executed = False
        try:
            try:
                if view is None:
                    # A journal holding a previous campaign_start records a
                    # *different* campaign over this corpus; archive it so
                    # this run's log replays standalone — once the files
                    # hold its inserts, its map and its quarantine.  A
                    # journal this version refuses raises here, and the
                    # corpus directory is left as it was.
                    self.corpus.fold()
                    self._journal.rotate()
                opened = True
                attacks_registered = self._bootstrap(view)
                outcome_by_id, cache_stats = self._run_matrix(view)
                executed = True
            finally:
                # A fold that raises still releases the journal's handles.
                try:
                    if opened:
                        self.corpus.fold(
                            mark=executed, archive=self.archive, quarantine=self.quarantine
                        )
                finally:
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

    def _run_matrix(
        self, view: Optional[JournalView]
    ) -> "tuple[Dict[str, ScenarioOutcome], Dict[str, Any]]":
        """Run the unfinished scenarios in matrix order; returns the outcomes
        by scenario id and the cache statistics.

        Later scenarios see (and are seeded by) everything earlier ones put
        into the corpus — and, with coverage guidance, every cell earlier
        scenarios opened in the shared archive.
        """
        scenarios = self.spec.expand()
        cache = self._injected_cache
        if cache is None:
            population = self.spec.budget.population_size * self.spec.budget.islands
            cache = TraceCache(max_entries=max(8192, 8 * population * len(scenarios)))
        #: How much of the cache's op log the journal already holds.
        self._cache, self._cache_mark = cache, 0
        if view is not None and view.cache_state is not None:
            try:
                self._cache_mark = cache.restore(view.cache_state)
            except ValueError:
                # A dump from an older outcome schema or journal layout
                # cannot be trusted; resuming cold is still correct, just
                # slower.
                self._progress("journaled cache dump is stale; resuming with a cold cache")
        outcome_by_id = journaled_outcomes(self.spec, view)
        with campaign_backend(self.spec, self.quarantine, self._injected_backend) as backend:
            for scenario in scenarios:
                scenario_id = scenario.scenario_id
                if scenario_id in outcome_by_id:
                    self._progress(f"[{scenario_id}] already complete (journal)")
                    continue
                # A checkpointed scenario restores its population (seeds
                # included) from the snapshot; only fresh starts draw seeds
                # from the corpus.
                checkpoint = resume_checkpoint(
                    view, scenario_id, cache, self.archive, self._progress
                )
                seeds = [] if checkpoint is not None else self._scenario_seeds(scenario)
                self._journal.append(
                    "scenario_lease",
                    {"scenario_id": scenario_id, "seed": scenario.seed, "campaign": self.spec.name},
                )
                outcome_by_id[scenario_id] = self._run_scenario(
                    scenario, backend, seeds, checkpoint["fuzzer"] if checkpoint else None
                )
        return outcome_by_id, dict(cache.stats())

    def _scenario_seeds(self, scenario: Scenario) -> List[PacketTrace]:
        return self.corpus.seeds_for(
            scenario.mode,
            scenario.budget.duration,
            self.spec.seed_limit,
            objective=scenario.objective,
            bottleneck_rate_mbps=scenario.condition.bottleneck_rate_mbps,
        )

    def _cache_delta(self) -> Dict[str, Any]:
        """The cache touches since the last journaled delta."""
        delta, self._cache_mark = self._cache.delta_since(self._cache_mark)
        return delta

    def _insert(self, trace: PacketTrace, scenario_key: str, **fields: Any) -> bool:
        """Journal the insert of ``trace`` under ``scenario_key``, then apply
        it to the corpus; returns True iff it was new.  The journal record
        *is* the insert: :meth:`CorpusStore.fold` publishes it when the
        campaign ends."""
        prior = self._prior_inserts.get(scenario_key, {}).get(trace.fingerprint())
        if prior is not None:       # the corpus applied it when it read the journal
            return bool(prior["new"])
        return self.corpus.add(
            trace,
            lambda data: self._journal.append("corpus_insert", {"scenario_id": scenario_key, **data}),
            **fields,
        )

    def _run_scenario(
        self,
        scenario: Scenario,
        backend: EvaluationBackend,
        seeds: List[PacketTrace],
        resume_state: Optional[Dict[str, Any]],
    ) -> ScenarioOutcome:
        """One GA search, journaled, harvested and completed.

        ``resume_state`` is the fuzzer snapshot to continue from; its
        population replaces ``seeds``.
        """
        started = time.perf_counter()
        journal, archive = self._journal, self.archive
        scenario_id = scenario.scenario_id
        # Provenance on every quarantine entry this scenario produces.
        self.quarantine.context = {"scenario_id": scenario_id}
        #: How many of the archive's touch stamps the journal already holds.
        cell_mark = archive.mark

        def checkpoint(state: Dict[str, Any]) -> None:
            # The behavior-map delta goes *first*, then the fuzzer checkpoint
            # (with the cache touches since the last one): resume trusts the
            # checkpoint and applies deltas only up to its generation, so a
            # kill between the two appends cannot leave the archive ahead of
            # (or behind) the GA state.
            nonlocal cell_mark
            changed, cell_mark = archive.delta_since(cell_mark)
            journal.append(
                "behavior_delta",
                {
                    "scenario_id": scenario_id,
                    "generation": state["generation"],
                    "cells": changed,
                    "counters": archive.counters(),
                },
            )
            # The history goes as its tail: the view folds the whole list.
            journal.append(
                "generation_checkpoint",
                {
                    "scenario_id": scenario_id,
                    "generation": state["generation"],
                    "fuzzer": {**state, "history": state["history"][-1:]},
                    "cache": self._cache_delta(),
                },
            )

        fuzzer = CCFuzz(
            cca_factory(scenario.cca),
            config=scenario.fuzz_config(),
            score_function=make_score_function(scenario.objective, scenario.mode),
            seed_traces=seeds,
            backend=backend,
            cache=self._cache,
            archive=archive,
        )
        telemetry = self._telemetry
        with telemetry.scenario_span(scenario):
            result = fuzzer.run(
                progress=lambda stats: telemetry.generation(scenario, stats),
                checkpoint=checkpoint,
                resume_from=resume_state,
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
                new_entries += self._insert(
                    individual.trace,
                    scenario_id,
                    scenario_id=scenario_id,
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
        journal.append(
            "scenario_complete",
            {
                "scenario_id": scenario_id,
                "outcome": outcome.to_journal_dict(),
                "cache": self._cache_delta(),
            },
        )
        telemetry.scenario_completed(outcome)
        self._progress(
            f"[{scenario_id}] best={outcome.best_fitness:.4f} "
            f"evals={outcome.evaluations} hits={outcome.cache_hits} "
            f"seeds={outcome.seeds_injected} new={outcome.new_corpus_entries} "
            f"cells={outcome.behavior_cells} ({outcome.wall_time_s:.1f}s)"
        )
        return outcome
