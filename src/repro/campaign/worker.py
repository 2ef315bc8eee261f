"""Fleet workers: K processes growing one corpus through the shared journal.

The scenario matrix of a campaign is embarrassingly parallel, so the fleet
splits it by *scenario*: every worker loops

1. replay the shared journal,
2. atomically claim an unclaimed-or-expired scenario lease
   (:meth:`CampaignJournal.claim_lease` — replay + append under the
   cross-process file lock, granting a fresh fencing epoch),
3. run the scenario's GA search, journaling a behavior delta + generation
   checkpoint (with the cache touches since the last one) after **every
   evaluated generation** and
   renewing the lease as a heartbeat,
4. journal the harvest as ``corpus_insert`` intents and the outcome as
   ``scenario_complete``, then release the lease,

until every scenario in the matrix is complete.  A worker that dies mid-
scenario simply stops heartbeating; once its lease expires another worker
*steals* the scenario — claiming it at the next epoch and resuming the GA
from the victim's last checkpoint — while anything the zombie writes after
the steal is dropped by epoch fencing at replay.

Determinism: fleet results are a per-scenario deterministic function of the
journaled seed plan, so a fleet of any size, with any interleaving and any
number of mid-scenario worker deaths, converges to the same corpus
fingerprints, behavior map and campaign digest as an uninterrupted
single-process run.  Three rules make that true:

* every scenario draws its seeds from the ``scenario_seeds`` plan the driver
  journals once at launch (the corpus snapshot after builtin registration) —
  never from the live corpus another worker may be mutating;
* every scenario runs against a private, initially-cold trace cache and a
  private behavior archive seeded from the campaign baseline (both restored
  from the checkpoint on a steal), so no cross-scenario state leaks in;
* workers never write the corpus — they journal ``corpus_insert`` intents
  (``new`` decided against the journaled snapshot, not the live corpus) and
  the driver folds the insert WAL into the corpus at finalize.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.fuzzer import CCFuzz
from ..coverage.archive import BehaviorArchive
from ..exec.backend import EvaluationBackend, create_backend
from ..exec.cache import TraceCache
from ..exec.faults import FaultPolicy
from ..exec.quarantine import QuarantineStore
from ..journal import CampaignJournal, JournalView
from ..obs.telemetry import CampaignTelemetry
from ..scoring.objectives import make_score_function
from ..tcp.cca import cca_factory
from .corpus import CorpusStore
from .scheduler import CampaignResult, CampaignRunner, ScenarioOutcome
from .spec import CampaignSpec, Scenario

ProgressCallback = Callable[[str], None]

#: How long an idle worker sleeps before re-polling for claimable scenarios.
DEFAULT_POLL_S = 0.25


class FleetError(RuntimeError):
    """The journal does not describe a runnable fleet campaign."""


def _scenario_archive(
    view: JournalView,
    baseline: Dict[str, Any],
    scenario_id: str,
    generation_limit: Optional[int],
) -> BehaviorArchive:
    """Rebuild one scenario's private archive at a checkpoint boundary.

    Baseline plus the scenario's own (unfenced) deltas up to the checkpoint
    generation.  Deltas from earlier lease epochs are fine: a resumed epoch
    re-evaluates its first generation bit-identically, so same-generation
    deltas from different epochs carry identical payloads.
    """
    archive = BehaviorArchive.from_dict(baseline)
    if generation_limit is None:
        return archive
    cells: Dict[str, Dict[str, Any]] = {}
    counters: Optional[Dict[str, int]] = None
    for delta in view.behavior_deltas:
        if delta.get("scenario_id") != scenario_id:
            continue
        if delta.get("generation", 0) > generation_limit:
            continue
        cells.update(delta.get("cells", {}))
        if delta.get("counters") is not None:
            counters = delta["counters"]
    archive.apply_delta(cells, counters)
    return archive


class FleetWorker:
    """One claim-run-complete loop over the shared journal."""

    def __init__(
        self,
        corpus_dir: str,
        worker_id: str,
        *,
        ttl: Optional[float] = None,
        poll_s: float = DEFAULT_POLL_S,
        kill_after_checkpoints: Optional[int] = None,
        backend: Optional[EvaluationBackend] = None,
        telemetry: bool = True,
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        self.corpus_dir = str(corpus_dir)
        self.worker_id = worker_id
        self.poll_s = poll_s
        self._ttl_override = ttl
        #: Crash-injection hook: SIGKILL this process right after the Nth
        #: ``generation_checkpoint`` append (before the heartbeat renew), the
        #: exact window the steal-and-resume machinery exists for.
        self.kill_after_checkpoints = kill_after_checkpoints
        self._checkpoints_written = 0
        self._injected_backend = backend
        self._telemetry_enabled = telemetry
        self._progress = progress or (lambda message: None)
        self.journal = CampaignJournal(CampaignJournal.corpus_path(self.corpus_dir))
        self.corpus = CorpusStore(self.corpus_dir)
        # Quarantine state lives in the journal, not in a file this worker
        # owns: entries journal through the hook (epoch-stamped, so fenced
        # like any other record) and flow back in via replay; the driver
        # materialises quarantine.json once, at finalize.
        self.quarantine = QuarantineStore(
            journal_hook=lambda entry: self.journal.append("job_quarantined", entry)
        )
        self.scenarios_run = 0

    # ------------------------------------------------------------------ #
    # Campaign context (from the journal)
    # ------------------------------------------------------------------ #

    def _campaign_context(
        self, view: JournalView
    ) -> Tuple[CampaignSpec, int, Dict[str, Any], Dict[str, Any]]:
        start = view.campaign
        if start is None:
            raise FleetError(f"no campaign_start in journal at {self.journal.path}")
        plan = view.scenario_seeds
        if plan is None:
            raise FleetError(
                "journal has no scenario_seeds plan; fleet workers need the "
                "driver's journaled seed snapshot (run via run_fleet / "
                "`repro-campaign workers`)"
            )
        spec = CampaignSpec.from_dict(start["spec"])
        return spec, int(start.get("harvest_top_k", 3)), start["archive_baseline"], plan

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #

    def run(self) -> int:
        """Claim and run scenarios until the matrix is complete.

        Returns the number of scenarios this worker completed.
        """
        view = self.journal.replay()
        spec, harvest_top_k, baseline, plan = self._campaign_context(view)
        ttl = self._ttl_override if self._ttl_override is not None else spec.lease_ttl
        telemetry = CampaignTelemetry(
            self.corpus_dir, enabled=self._telemetry_enabled, worker_id=self.worker_id
        )
        if self._injected_backend is not None:
            backend = self._injected_backend
            if backend.policy.quarantine is None:
                backend.policy.quarantine = self.quarantine
        else:
            backend = create_backend(
                spec.backend,
                spec.workers,
                policy=FaultPolicy(
                    job_timeout=spec.job_timeout,
                    max_retries=spec.max_retries,
                    quarantine=self.quarantine,
                ),
            )
        owns_backend = self._injected_backend is None
        scenarios = spec.expand()
        try:
            while True:
                view = self.journal.replay()
                # Other workers' quarantines arrive through replay; folding
                # them in (idempotently) means this worker refuses a crasher
                # a sibling already paid for, instead of re-discovering it.
                for entry in view.quarantined:
                    self.quarantine.apply_event(entry)
                pending = [
                    scenario
                    for scenario in scenarios
                    if scenario.scenario_id not in view.completed
                ]
                if not pending:
                    return self.scenarios_run
                claimed: Optional[Tuple[Scenario, Dict[str, Any]]] = None
                for scenario in pending:
                    lease = self.journal.claim_lease(
                        scenario.scenario_id,
                        self.worker_id,
                        ttl=ttl,
                        extra={"campaign": spec.name, "seed": scenario.seed},
                    )
                    if lease is not None:
                        claimed = (scenario, lease)
                        break
                if claimed is None:
                    # Everything pending is held live by other workers; wait
                    # for a completion or an expiry.
                    time.sleep(self.poll_s)
                    continue
                scenario, lease = claimed
                # Fresh replay *after* the claim: fencing has already dropped
                # any records a previous holder wrote post-steal, so the
                # checkpoint and deltas seen here are exactly the victim's
                # durable pre-steal progress.
                view = self.journal.replay()
                self._run_scenario(
                    scenario, lease, view, baseline, plan, harvest_top_k,
                    spec, backend, telemetry,
                )
                self.scenarios_run += 1
        finally:
            if owns_backend:
                backend.close()
            telemetry.close()

    # ------------------------------------------------------------------ #
    # One scenario
    # ------------------------------------------------------------------ #

    def _seed_traces(self, plan: Dict[str, Any], scenario: Scenario) -> List[Any]:
        seeds = []
        for fingerprint in plan.get("seeds", {}).get(scenario.scenario_id, []):
            seeds.append(self.corpus.get(fingerprint).trace.copy())
        return seeds

    def _run_scenario(
        self,
        scenario: Scenario,
        lease: Dict[str, Any],
        view: JournalView,
        baseline: Dict[str, Any],
        plan: Dict[str, Any],
        harvest_top_k: int,
        spec: CampaignSpec,
        backend: EvaluationBackend,
        telemetry: CampaignTelemetry,
    ) -> None:
        started = time.perf_counter()
        scenario_id = scenario.scenario_id
        epoch = lease.get("lease_epoch", 0)
        # Full fleet provenance on every quarantine entry this scenario
        # produces — and the epoch fences the journal event on lease steals.
        self.quarantine.context = {
            "scenario_id": scenario_id,
            "lease_epoch": epoch,
            "worker": self.worker_id,
        }
        checkpoint = view.checkpoints.get(scenario_id)
        resume_state = checkpoint["fuzzer"] if checkpoint is not None else None
        stolen = checkpoint is not None
        # Private, per-scenario evaluation cache: cold on a fresh claim,
        # restored from the scenario's folded op log on a steal — either way
        # its hit counts match an uninterrupted run's, keeping the digest
        # identical.
        population = scenario.budget.population_size * scenario.budget.islands
        cache = TraceCache(max_entries=max(8192, 64 * population))
        cache_mark = 0
        if checkpoint is not None and scenario_id in view.caches:
            try:
                cache_mark = cache.restore(view.caches[scenario_id])
            except ValueError:
                self._progress(
                    f"[{scenario_id}] checkpointed cache dump is stale; resuming cold"
                )
        archive = _scenario_archive(
            view,
            baseline,
            scenario_id,
            checkpoint["generation"] if checkpoint is not None else None,
        )
        marks = {"cells": archive.mark, "cache": cache_mark}
        seeds = [] if resume_state is not None else self._seed_traces(plan, scenario)
        if stolen:
            victim = checkpoint.get("worker", "?")
            self._progress(
                f"[{scenario_id}] stolen from {victim} at epoch {epoch}, "
                f"resuming from generation {checkpoint['generation']}"
            )

        def on_checkpoint(state: Dict[str, Any]) -> None:
            changed, marks["cells"] = archive.delta_since(marks["cells"])
            self.journal.append(
                "behavior_delta",
                {
                    "scenario_id": scenario_id,
                    "generation": state["generation"],
                    "cells": changed,
                    "counters": archive.counters(),
                    "lease_epoch": epoch,
                    "worker": self.worker_id,
                },
            )
            cache_delta, marks["cache"] = cache.delta_since(marks["cache"])
            self.journal.append(
                "generation_checkpoint",
                {
                    "scenario_id": scenario_id,
                    "generation": state["generation"],
                    "fuzzer": state,
                    "cache": cache_delta,
                    "lease_epoch": epoch,
                    "worker": self.worker_id,
                },
            )
            self._checkpoints_written += 1
            if (
                self.kill_after_checkpoints is not None
                and self._checkpoints_written >= self.kill_after_checkpoints
            ):
                # Die exactly like a crashed worker: checkpoint durable, no
                # heartbeat, no release — the steal path must finish the job.
                os.kill(os.getpid(), signal.SIGKILL)
            self.journal.renew_lease(lease)

        fuzzer = CCFuzz(
            cca_factory(scenario.cca),
            config=scenario.fuzz_config(),
            score_function=make_score_function(scenario.objective, scenario.mode),
            seed_traces=seeds,
            backend=backend,
            cache=cache,
            archive=archive,
        )
        with telemetry.scenario_span(scenario):
            result = fuzzer.run(
                progress=lambda stats: telemetry.generation(scenario, stats),
                checkpoint=on_checkpoint,
                resume_from=resume_state,
            )
            new_entries = self._harvest(
                scenario, result, view, plan, harvest_top_k, epoch, spec
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
        # Completion before release: once released, the scenario would be
        # claimable again, and a *later* claim's epoch would fence this
        # record — so the order is complete, then let go.
        self.journal.append(
            "scenario_complete",
            {
                "scenario_id": scenario_id,
                "outcome": outcome.to_journal_dict(),
                "archive": archive.to_dict(),
                "lease_epoch": epoch,
                "worker": self.worker_id,
            },
        )
        self.journal.release_lease(lease)
        telemetry.scenario_completed(outcome)
        self._progress(
            f"[{scenario_id}] worker={self.worker_id} best={outcome.best_fitness:.4f} "
            f"evals={outcome.evaluations} new={outcome.new_corpus_entries} "
            f"({outcome.wall_time_s:.1f}s)"
        )

    def _harvest(
        self,
        scenario: Scenario,
        result: Any,
        view: JournalView,
        plan: Dict[str, Any],
        harvest_top_k: int,
        epoch: int,
        spec: CampaignSpec,
    ) -> int:
        """Journal the scenario's top-k survivors as corpus-insert intents.

        ``new`` is decided against the journaled launch snapshot plus this
        scenario's own prior inserts — a rule every worker (and the serial
        control run) evaluates identically, unlike the live corpus, whose
        contents depend on scenario interleaving.  Fingerprints a previous
        epoch of this scenario already journaled replay their recorded
        intent, mirroring the scheduler's write-ahead idempotence.
        """
        scenario_id = scenario.scenario_id
        corpus_snapshot = set(plan.get("corpus", []))
        prior_inserts = dict(view.inserts_by_scenario.get(scenario_id, {}))
        new_entries = 0
        harvested: set = set()
        for individual in result.top_individuals(harvest_top_k):
            if not individual.is_evaluated:
                continue
            fingerprint = individual.trace.fingerprint()
            if fingerprint in harvested:
                continue
            harvested.add(fingerprint)
            prior = prior_inserts.get(fingerprint)
            if prior is not None:
                new_entries += bool(prior["new"])
                continue
            is_new = fingerprint not in corpus_snapshot
            behavior = individual.result_summary.get("behavior_signature")
            entry = {
                "scenario_id": scenario_id,
                "cca": scenario.cca,
                "objective": scenario.objective,
                "score": individual.fitness,
                "generation_found": individual.generation_born,
                "origin": "fuzz",
                "campaign": spec.name,
                "condition": scenario.condition.to_dict(),
                "behavior": dict(behavior) if isinstance(behavior, dict) else None,
                "trace": individual.trace.to_dict(),
            }
            self.journal.append(
                "corpus_insert",
                {
                    "scenario_id": scenario_id,
                    "fingerprint": fingerprint,
                    "new": is_new,
                    "rediscoveries_after": None,
                    "entry": entry,
                    "lease_epoch": epoch,
                    "worker": self.worker_id,
                },
            )
            new_entries += is_new
        return new_entries


# ---------------------------------------------------------------------- #
# The fleet driver
# ---------------------------------------------------------------------- #


def _spawn_worker(
    corpus_dir: str,
    worker_id: str,
    ttl: float,
    poll_s: float,
    kill_after_checkpoints: Optional[int],
) -> subprocess.Popen:
    command = [
        sys.executable,
        "-c",
        "from repro.campaign.worker import main; import sys; sys.exit(main())",
        "--corpus",
        corpus_dir,
        "--worker-id",
        worker_id,
        "--ttl",
        str(ttl),
        "--poll",
        str(poll_s),
    ]
    if kill_after_checkpoints is not None:
        command += ["--kill-after-checkpoints", str(kill_after_checkpoints)]
    env = dict(os.environ)
    # Workers import `repro` the same way this process did, wherever it lives.
    package_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (package_root, env.get("PYTHONPATH")) if part
    )
    return subprocess.Popen(command, env=env)


def run_fleet(
    spec: CampaignSpec,
    corpus_dir: str,
    *,
    workers: int = 2,
    poll_s: float = DEFAULT_POLL_S,
    kill_worker: Optional[int] = None,
    kill_after_checkpoints: Optional[int] = None,
    register_attacks: bool = True,
    harvest_top_k: int = 3,
    telemetry: bool = True,
    progress: Optional[ProgressCallback] = None,
) -> CampaignResult:
    """Run a campaign with a fleet of worker processes over one corpus.

    The driver bootstraps the journal (campaign start, builtin attacks, the
    seed plan), spawns ``workers`` subprocesses, waits for them, drains any
    scenarios left over (e.g. every worker died) inline, and finalizes:
    folds the corpus-insert WAL into the corpus, assembles outcomes in
    matrix order, merges per-scenario archives into ``behavior_map.json``.

    ``workers=0`` runs the whole campaign inline in this process — the
    uninterrupted single-process control that fleet runs (of any size, with
    any worker deaths) must digest-match.

    ``kill_worker``/``kill_after_checkpoints`` inject a crash: worker index
    ``kill_worker`` SIGKILLs itself after its Nth generation-checkpoint
    append, leaving a mid-scenario lease for the others to steal.

    A corpus whose journal already holds this campaign, incomplete, is
    resumed (the matrix picks up where the dead fleet stopped); anything
    else is rotated away and started fresh.
    """
    if workers < 0:
        raise ValueError("workers must be >= 0")
    emit = progress or (lambda message: None)
    started = time.perf_counter()
    corpus = CorpusStore(str(corpus_dir))
    runner = CampaignRunner(
        spec,
        corpus,
        register_attacks=register_attacks,
        harvest_top_k=harvest_top_k,
        telemetry=False,
        progress=progress,
    )
    journal = runner._journal
    assert journal is not None
    driver_telemetry = CampaignTelemetry(str(corpus_dir), enabled=telemetry)
    view = journal.replay()
    scenarios = spec.expand()
    resuming = (
        view.campaign is not None
        and view.campaign.get("campaign") == spec.name
        and view.scenario_seeds is not None
        and any(s.scenario_id not in view.completed for s in scenarios)
    )
    if resuming:
        emit(
            f"fleet resume: {len(view.completed)}/{len(scenarios)} scenarios "
            "already complete"
        )
        journal.append(
            "campaign_resume",
            {
                "campaign": spec.name,
                "completed": sorted(view.completed),
                "inflight": sorted(view.pending_checkpoints()),
            },
        )
        # Corpus repair + idempotent builtin re-registration, exactly like
        # CampaignRunner.resume: the corpus can only lag the journal.
        for data in view.inserts:
            runner._apply_insert_event(data)
        runner._journaled_inserts = {
            scenario_key: dict(by_fingerprint)
            for scenario_key, by_fingerprint in view.inserts_by_scenario.items()
        }
        attacks_registered = (
            runner._register_builtin_attacks() if register_attacks else 0
        )
        start_payload = view.campaign
    else:
        journal.rotate()
        start_payload = {
            "campaign": spec.name,
            "spec": spec.to_dict(),
            "harvest_top_k": harvest_top_k,
            "register_attacks": register_attacks,
            "max_parallel": 1,
            "archive_baseline": runner.archive.to_dict(),
            "fleet": workers,
        }
        journal.append("campaign_start", start_payload)
        attacks_registered = (
            runner._register_builtin_attacks() if register_attacks else 0
        )
        # The seed plan: one corpus snapshot, taken after builtin
        # registration, that every scenario draws its seeds from — journaled
        # so every worker (and every steal, and every resume) reads the same
        # plan regardless of what the live corpus looks like by then.
        seed_plan = {
            scenario.scenario_id: [
                trace.fingerprint() for trace in runner._scenario_seeds(scenario)
            ]
            for scenario in scenarios
        }
        journal.append(
            "scenario_seeds",
            {
                "campaign": spec.name,
                "corpus": corpus.fingerprints(),
                "seeds": seed_plan,
            },
        )
        emit(
            f"fleet start: {len(scenarios)} scenarios, {workers} workers, "
            f"{attacks_registered} builtin attacks registered"
        )
    driver_telemetry.campaign_started(
        spec, resumed=resuming, completed=sorted(view.completed) if resuming else ()
    )

    processes: List[subprocess.Popen] = []
    try:
        for index in range(workers):
            kill_n = (
                kill_after_checkpoints
                if kill_worker is not None and index == kill_worker
                else None
            )
            processes.append(
                _spawn_worker(
                    str(corpus_dir), f"w{index}", spec.lease_ttl, poll_s, kill_n
                )
            )
        for index, process in enumerate(processes):
            code = process.wait()
            if code != 0:
                emit(f"worker w{index} exited with {code}")
    finally:
        for process in processes:
            if process.poll() is None:
                process.kill()
                process.wait()

    # Drain inline: finishes the matrix when every subprocess died (or when
    # workers=0 — the single-process control run).
    view = journal.replay()
    if any(s.scenario_id not in view.completed for s in scenarios):
        drain = FleetWorker(
            str(corpus_dir),
            "driver",
            poll_s=poll_s,
            telemetry=telemetry,
            progress=progress,
        )
        drained = drain.run()
        if drained and workers:
            emit(f"driver drained {drained} leftover scenarios inline")

    # Finalize: fold the insert WAL into the corpus, assemble outcomes and
    # the behavior map in matrix order (interleaving-independent).
    view = journal.replay()
    for data in view.inserts:
        runner._apply_insert_event(data)
    # Workers journal quarantines but never touch quarantine.json (one file,
    # many processes); the driver folds the surviving — unfenced — events
    # into the corpus-backed store here, exactly once.
    for entry in view.quarantined:
        runner.quarantine.apply_event(entry)
    outcomes = []
    for scenario in scenarios:
        payload = view.completed.get(scenario.scenario_id)
        if payload is None:
            raise FleetError(f"scenario {scenario.scenario_id} never completed")
        outcomes.append(
            ScenarioOutcome.from_journal_dict(scenario, payload["outcome"])
        )
    baseline = BehaviorArchive.from_dict(start_payload["archive_baseline"])
    final_archive = BehaviorArchive.from_dict(start_payload["archive_baseline"])
    for scenario in scenarios:
        payload = view.completed[scenario.scenario_id]
        if payload.get("archive") is not None:
            final_archive.merge(
                BehaviorArchive.from_dict(payload["archive"]), baseline=baseline
            )
    final_archive.save(BehaviorArchive.corpus_path(corpus.path))
    journal.close()
    result = CampaignResult(
        spec=spec,
        outcomes=outcomes,
        corpus_stats=corpus.stats(),
        cache_stats={},
        wall_time_s=time.perf_counter() - started,
        attacks_registered=attacks_registered,
        coverage=final_archive.coverage(),
    )
    driver_telemetry.campaign_completed(spec, result=result, resumed=resuming)
    driver_telemetry.close()
    return result


# ---------------------------------------------------------------------- #
# Worker process entry point
# ---------------------------------------------------------------------- #


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-campaign-worker",
        description="One fleet worker: claim, run and complete scenarios "
        "from a shared campaign journal until the matrix is done.",
    )
    parser.add_argument("--corpus", required=True, help="shared corpus directory")
    parser.add_argument("--worker-id", required=True, help="identity for leases/telemetry")
    parser.add_argument(
        "--ttl", type=float, default=None,
        help="lease time-to-live in seconds (default: the campaign spec's lease_ttl)",
    )
    parser.add_argument(
        "--poll", type=float, default=DEFAULT_POLL_S,
        help="seconds between claim attempts while other workers hold every lease",
    )
    parser.add_argument(
        "--kill-after-checkpoints", type=int, default=None,
        help="crash injection: SIGKILL self after the Nth checkpoint append",
    )
    parser.add_argument(
        "--no-telemetry", action="store_true", help="do not write metrics.jsonl records"
    )
    args = parser.parse_args(argv)
    worker = FleetWorker(
        args.corpus,
        args.worker_id,
        ttl=args.ttl,
        poll_s=args.poll,
        kill_after_checkpoints=args.kill_after_checkpoints,
        telemetry=not args.no_telemetry,
        progress=lambda message: print(message, flush=True),
    )
    completed = worker.run()
    print(
        json.dumps({"worker": args.worker_id, "scenarios_completed": completed}),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
