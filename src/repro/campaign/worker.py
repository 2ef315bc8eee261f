"""Fleet workers: the scenario body under a per-scenario isolation scope.

The scenario matrix of a campaign is embarrassingly parallel, so the fleet
splits it by *scenario*.  A :class:`FleetWorker` is only the claim loop plus
the scope it builds for each claim; the search itself is the one body in
:meth:`repro.campaign.scheduler.ScenarioEngine.run_scenario`.  Every worker
loops

1. replay the shared journal (its cursor parses only what other workers
   appended since this one last looked; own appends are folded as written),
2. atomically claim an unclaimed-or-expired scenario lease
   (:meth:`CampaignJournal.claim_lease` — catch up + append under the
   cross-process file lock, granting a fresh fencing epoch),
3. build the scenario's scope from the post-claim journal view and run the
   body under it, renewing the lease as a heartbeat after every journaled
   generation,
4. release the lease once ``scenario_complete`` is durable,

until every scenario in the matrix is complete.  A worker that dies mid-
scenario simply stops heartbeating; once its lease expires another worker
*steals* the scenario — claiming it at the next epoch and resuming the GA
from the victim's last checkpoint — while anything the zombie writes after
the steal is dropped by epoch fencing at replay.

Determinism: under this scope a scenario's result is a deterministic
function of the journaled seed plan alone, so a fleet of any size, with any
interleaving and any number of mid-scenario worker deaths, converges to the
same corpus fingerprints, behavior map and campaign digest as
``run_fleet(workers=0)``, the uninterrupted single-process run of the same
policy.  Three rules make that true:

* every scenario draws its seeds from the ``scenario_seeds`` plan the driver
  journals once at launch (the corpus snapshot after builtin registration) —
  never from whatever the corpus holds by then — and reads them through the
  one corpus reader (the builtins are journal records until the fold);
* every scenario runs against a private, initially-cold trace cache and a
  private behavior archive seeded from the campaign baseline (both restored
  from the journal on a steal), so no cross-scenario state leaks in;
* workers only journal ``corpus_insert`` records (``new`` decided against
  the journaled snapshot, not the live corpus); the driver folds them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from ..coverage.archive import BehaviorArchive
from ..exec.backend import EvaluationBackend
from ..exec.cache import TraceCache
from ..exec.quarantine import QuarantineStore
from ..journal import CampaignJournal, JournalView
from ..obs.console import Console, add_console_flags
from ..obs.telemetry import CampaignTelemetry
from .corpus import CorpusReader, CorpusStore, read_corpus_map
from .scheduler import (
    CampaignResult,
    CampaignRunner,
    InsertLog,
    ProgressCallback,
    ScenarioEngine,
    ScenarioOutcome,
    ScenarioScope,
    campaign_backend,
    journaled_outcomes,
    restore_cache,
    resume_checkpoint,
)
from .spec import DEFAULT_POLL_S, CampaignSpec, Scenario


class FleetError(RuntimeError):
    """The journal does not describe a runnable fleet campaign."""


class FleetWorker:
    """One claim-run-release loop over the shared journal."""

    def __init__(
        self,
        corpus_dir: str,
        worker_id: str,
        *,
        poll_s: float = DEFAULT_POLL_S,
        kill_after_checkpoints: Optional[int] = None,
        backend: Optional[EvaluationBackend] = None,
        telemetry: bool = True,
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        self.corpus_dir = str(corpus_dir)
        self.worker_id = worker_id
        self.poll_s = poll_s
        #: Crash-injection hook: SIGKILL this process right after the Nth
        #: ``generation_checkpoint`` append (before the heartbeat renew), the
        #: exact window the steal-and-resume machinery exists for.
        self.kill_after_checkpoints = kill_after_checkpoints
        self._checkpoints_written = 0
        self._injected_backend = backend
        self._telemetry_enabled = telemetry
        self._progress = progress or (lambda message: None)
        self.journal = CampaignJournal(CampaignJournal.corpus_path(self.corpus_dir))
        # Quarantine state lives in the journal, not in a file this worker
        # owns: entries journal through the hook (epoch-stamped, so fenced
        # like any other record) and flow back in via replay; the driver
        # materialises quarantine.json once, at finalize.
        self.quarantine = QuarantineStore(
            journal_hook=lambda entry: self.journal.append("job_quarantined", entry)
        )
        self.scenarios_run = 0

    def run(self) -> int:
        """Claim and run scenarios until the matrix is complete.

        Returns the number of scenarios this worker completed.
        """
        view = self.journal.replay()
        start, plan = view.campaign, view.scenario_seeds
        if start is None:
            raise FleetError(f"no campaign_start in journal at {self.journal.path}")
        if plan is None:
            raise FleetError(
                "journal has no scenario_seeds plan; fleet workers need the "
                "driver's journaled seed snapshot (run via run_fleet / "
                "`repro-campaign workers`)"
            )
        spec = CampaignSpec.from_dict(start["spec"])
        scenarios = spec.expand()
        # A reader, not the store: opening the store would sweep the
        # driver's in-flight temp files out from under it.
        self.corpus = CorpusReader(self.corpus_dir, lambda: view)
        telemetry = CampaignTelemetry(
            self.corpus_dir, enabled=self._telemetry_enabled, worker_id=self.worker_id
        )
        with contextlib.closing(telemetry), campaign_backend(
            spec, self.quarantine, self._injected_backend
        ) as backend:
            engine = ScenarioEngine(
                spec.name, int(start.get("harvest_top_k", 3)), self.journal, backend,
                telemetry, self.quarantine, self._progress,
            )
            while True:
                view = self.journal.replay()
                # Other workers' quarantines arrive through replay; folding
                # them in (idempotently) means this worker refuses a crasher
                # a sibling already paid for, instead of re-discovering it.
                for entry in view.quarantined:
                    self.quarantine.apply_event(entry)
                pending = [s for s in scenarios if s.scenario_id not in view.completed]
                if not pending:
                    return self.scenarios_run
                for scenario in pending:
                    lease = self.journal.claim_lease(
                        scenario.scenario_id,
                        self.worker_id,
                        ttl=spec.lease_ttl,
                        extra={"campaign": spec.name, "seed": scenario.seed},
                    )
                    if lease is not None:
                        break
                else:
                    # Everything pending is held live by other workers; wait
                    # for a completion or an expiry.
                    time.sleep(self.poll_s)
                    continue
                # Fresh replay *after* the claim: fencing has already dropped
                # any records a previous holder wrote post-steal, so the
                # checkpoint and deltas seen here are exactly the victim's
                # durable pre-steal progress.
                view = self.journal.replay()
                engine.run_scenario(scenario, self._scope(scenario, lease, view, start, plan))
                # Completion before release: once released, the scenario
                # would be claimable again, and a *later* claim's epoch would
                # fence the completion record — so the body journals
                # complete, then the lease is let go.
                self.journal.release_lease(lease)
                self.scenarios_run += 1

    def _scope(
        self,
        scenario: Scenario,
        lease: Dict[str, Any],
        view: JournalView,
        start: Dict[str, Any],
        plan: Dict[str, Any],
    ) -> ScenarioScope:
        """The per-scenario scope, rebuilt from the journal view.

        Private cache and archive: cold and at the campaign baseline on a
        fresh claim, the previous holder's durable progress on a steal —
        either way the hit counts and cells match an uninterrupted run's,
        keeping the digest identical.
        """
        scenario_id = scenario.scenario_id
        stamp = {"lease_epoch": lease.get("lease_epoch", 0), "worker": self.worker_id}
        population = scenario.budget.population_size * scenario.budget.islands
        cache = TraceCache(max_entries=max(8192, 64 * population))
        cache_mark = restore_cache(cache, view.caches.get(scenario_id), self._progress)
        archive = BehaviorArchive.from_dict(start["archive_baseline"])
        checkpoint = resume_checkpoint(view, scenario_id, cache, archive, self._progress)
        seeds = []
        if checkpoint is None:
            seeds = [
                self.corpus.get(fingerprint).trace.copy()
                for fingerprint in plan.get("seeds", {}).get(scenario_id, [])
            ]
        else:
            self._progress(
                f"[{scenario_id}] stolen from {checkpoint.get('worker', '?')} at epoch "
                f"{stamp['lease_epoch']}, resuming from generation {checkpoint['generation']}"
            )

        def heartbeat() -> None:
            self._checkpoints_written += 1
            if (
                self.kill_after_checkpoints is not None
                and self._checkpoints_written >= self.kill_after_checkpoints
            ):
                # Die exactly like a crashed worker: checkpoint durable, no
                # heartbeat, no release — the steal path must finish the job.
                os.kill(os.getpid(), signal.SIGKILL)
            self.journal.renew_lease(lease)

        return ScenarioScope(
            cache=cache,
            archive=archive,
            inserts=InsertLog(
                None,
                self.journal,
                prior={scenario_id: view.inserts_by_scenario.get(scenario_id, {})},
                snapshot=frozenset(plan.get("corpus", [])),
            ),
            completion=lambda scope: {"archive": scope.archive.to_dict()},
            stamp=stamp,
            after_checkpoint=heartbeat,
            seeds=seeds,
            resume_state=checkpoint["fuzzer"] if checkpoint is not None else None,
            cache_mark=cache_mark,
            cell_mark=archive.mark,
        )


# ---------------------------------------------------------------------- #
# The fleet driver
# ---------------------------------------------------------------------- #


def _spawn_worker(
    corpus_dir: str,
    worker_id: str,
    poll_s: float,
    kill_after_checkpoints: Optional[int],
    telemetry: bool,
    quiet: bool,
) -> subprocess.Popen:
    command = [
        sys.executable,
        "-c",
        "from repro.campaign.worker import main; import sys; sys.exit(main())",
        "--corpus",
        corpus_dir,
        "--worker-id",
        worker_id,
        "--poll",
        str(poll_s),
    ]
    if kill_after_checkpoints is not None:
        command += ["--kill-after-checkpoints", str(kill_after_checkpoints)]
    if not telemetry:
        command.append("--no-telemetry")
    if quiet:
        command.append("--quiet")
    env = dict(os.environ)
    # Workers import `repro` the same way this process did, wherever it lives.
    package_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (package_root, env.get("PYTHONPATH")) if part
    )
    return subprocess.Popen(command, env=env)


def _await_lease(journal: CampaignJournal, worker_id: str, process: subprocess.Popen, poll_s: float) -> None:
    """Return once ``worker_id`` holds a scenario lease, or has exited."""
    while not any(
        lease.get("worker_id") == worker_id for lease in journal.replay().leases.values()
    ):
        try:
            process.wait(timeout=poll_s)
            return
        except subprocess.TimeoutExpired:
            pass


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
    archive: Optional[BehaviorArchive] = None,
) -> CampaignResult:
    """Run a campaign with a fleet of worker processes over one corpus.

    The driver goes through the lifecycle every campaign shares
    (:meth:`CampaignRunner._conduct`); its way of running the matrix is to
    journal the seed plan, spawn ``workers`` subprocesses, wait for them,
    drain any scenarios left over (e.g. every worker died) inline, and then
    read the result back from the journal: apply the corpus inserts, and take
    the map :func:`~repro.campaign.corpus.read_corpus_map` computes from it
    (the per-scenario archives merged over the baseline), which the fold
    publishes as ``behavior_map.json``.

    ``workers=0`` runs the whole campaign inline in this process — the
    uninterrupted single-process control that fleet runs (of any size, with
    any worker deaths) must digest-match.

    ``kill_worker``/``kill_after_checkpoints`` inject a crash: worker index
    ``kill_worker`` SIGKILLs itself after its Nth generation-checkpoint
    append, leaving a mid-scenario lease for the others to steal.  The victim
    starts first and the others once it holds a lease, so on any host it
    dies inside a scenario nobody else has claimed.

    ``archive`` is the behavior map a fresh campaign starts from (default:
    the corpus's, :func:`~repro.campaign.corpus.read_corpus_map`); a resumed
    one reads its map back from its journal.

    A corpus whose journal already holds this campaign, incomplete or not
    yet folded, is resumed (the matrix picks up where the dead fleet
    stopped); anything else is rotated away and started fresh.
    """
    if workers < 0:
        raise ValueError("workers must be >= 0")
    corpus_dir = str(corpus_dir)
    journal = CampaignJournal(CampaignJournal.corpus_path(corpus_dir))
    view = journal.replay()
    scenarios = spec.expand()
    corpus = CorpusStore(corpus_dir, lambda: view)
    unfinished = any(s.scenario_id not in view.completed for s in scenarios)
    resuming = (
        view.campaign is not None
        and view.campaign.get("campaign") == spec.name
        and view.scenario_seeds is not None
        and (unfinished or corpus.unpublished)      # or its driver died before the fold
    )
    runner = CampaignRunner(
        spec,
        corpus,
        archive=archive,
        register_attacks=register_attacks,
        harvest_top_k=harvest_top_k,
        progress=progress,
        journal=journal,
        telemetry=CampaignTelemetry(corpus_dir, enabled=telemetry),
    )
    if resuming:
        runner._repair(view)

    def run_matrix() -> "tuple[Dict[str, ScenarioOutcome], Dict[str, Any]]":
        if not resuming:
            # The seed plan: one corpus snapshot, taken after builtin
            # registration, that every scenario draws its seeds from —
            # journaled so every worker (and every steal, and every resume)
            # reads the same plan regardless of what the live corpus looks
            # like by then.
            journal.append(
                "scenario_seeds",
                {
                    "campaign": spec.name,
                    "corpus": runner.corpus.fingerprints(),
                    "seeds": {
                        scenario.scenario_id: [
                            trace.fingerprint() for trace in runner._scenario_seeds(scenario)
                        ]
                        for scenario in scenarios
                    },
                },
            )
        processes: List[subprocess.Popen] = []
        order = sorted(range(workers), key=lambda index: index != kill_worker)  # victim first
        try:
            for index in order:
                kill_n = kill_after_checkpoints if index == kill_worker else None
                processes.append(
                    _spawn_worker(
                        corpus_dir, f"w{index}", poll_s, kill_n,
                        telemetry=telemetry,
                        # No progress callback: the caller wants no progress output.
                        quiet=progress is None,
                    )
                )
                if kill_n is not None:
                    _await_lease(journal, f"w{index}", processes[-1], poll_s)
            for index, process in zip(order, processes):
                code = process.wait()
                if code != 0:
                    runner._progress(f"worker w{index} exited with {code}")
        finally:
            for process in processes:
                if process.poll() is None:
                    process.kill()
                    process.wait()
        # Drain inline: finishes the matrix when every subprocess died (or
        # when workers=0 — the single-process control run).
        final = journal.replay()
        if any(s.scenario_id not in final.completed for s in scenarios):
            drained = FleetWorker(
                corpus_dir, "driver", poll_s=poll_s, telemetry=telemetry, progress=progress
            ).run()
            if drained and workers:
                runner._progress(f"driver drained {drained} leftover scenarios inline")
            final = journal.replay()
        # Workers journal inserts and quarantines but never touch the corpus
        # or quarantine.json (one file, many processes); the driver applies
        # the surviving — unfenced — events here, and folds at finalize.
        for data in final.inserts:
            runner.corpus.apply(data)
        runner._repair(final)
        for scenario in scenarios:
            if scenario.scenario_id not in final.completed:
                raise FleetError(f"scenario {scenario.scenario_id} never completed")
        runner.archive = BehaviorArchive.from_dict(read_corpus_map(corpus_dir, final)[0])
        return journaled_outcomes(spec, final), {}

    return runner._conduct(run_matrix, view if resuming else None, fleet=workers)


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
    add_console_flags(parser)
    args = parser.parse_args(argv)
    console = Console.from_args(args)
    # The driver and its workers interleave on one stdout, pipe or not.
    sys.stdout.reconfigure(line_buffering=True)
    worker = FleetWorker(
        args.corpus,
        args.worker_id,
        poll_s=args.poll,
        kill_after_checkpoints=args.kill_after_checkpoints,
        telemetry=not args.no_telemetry,
        progress=console.info,
    )
    console.info(json.dumps({"worker": args.worker_id, "scenarios_completed": worker.run()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
