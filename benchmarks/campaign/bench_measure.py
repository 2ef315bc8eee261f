"""The untraced run of one workload: every end-to-end metric.

All numbers are taken from outside the program: by timing calls into public
functions and by injecting subclasses at the public seams of
``CampaignRunner(backend=, journal=)``.  Nothing under ``src/`` knows it is
being measured.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from bench_estimator import ReferenceKernel, Slice, SliceClock, Timing, median, timed
from bench_workloads import (
    REPO_ROOT,
    Workload,
    expected_candidates,
    expected_checkpoints,
    require_source_tree,
)

require_source_tree()

from repro.campaign import CampaignRunner, CorpusStore  # noqa: E402
from repro.campaign.corpus import read_corpus_index  # noqa: E402
from repro.exec.backend import ProcessPoolBackend, SerialBackend  # noqa: E402
from repro.exec.faults import FaultPolicy  # noqa: E402
from repro.journal import CampaignJournal  # noqa: E402
from repro.obs.manifest import read_manifest  # noqa: E402
from repro.serve.query import DashboardQuery  # noqa: E402
from repro.serve.replay import ReplayService  # noqa: E402

SETUP_PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")

#: Light query passes timed under one clock, and how often that is repeated
#: per corpus: a pass is ~1 ms, so it is cheap to measure it properly.
LIGHT_PASSES = 50
LIGHT_REPEATS = 3

#: Scratch space inside the checkout (the benchmark writes nowhere else).
WORK_ROOT = os.path.join(REPO_ROOT, ".bench_work")


def tree_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def pin_to_one_cpu() -> None:
    """Pin this process (and every child it forks) to a single CPU.

    Pool workers inherit the mask, so a workload never has more runnable
    processes than the one CPU it measures — parallel speed-up is not
    measurable on a 2-core shared host, dispatch cost is.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# ---------------------------------------------------------------------- #
# Seams
# ---------------------------------------------------------------------- #


class SlicingMixin:
    """Cuts the round into slices at ``evaluate_batch`` entry and exit.

    Overrides the public template method only to timestamp it; with the clock
    stopped it also counts failure outcomes, which must stay at zero.
    """

    clock: SliceClock
    batches = 0
    failures = 0

    def evaluate_batch(self, jobs):
        self.clock.switch("batch")
        outcomes = self._timed_batch(jobs)
        self.clock.switch("between", untimed=lambda: self._inspect(jobs, outcomes))
        return outcomes

    def _timed_batch(self, jobs):
        return super().evaluate_batch(jobs)  # type: ignore[misc]

    def _inspect(self, jobs, outcomes) -> None:
        self.batches += 1
        for _, summary in outcomes:
            if isinstance(summary, dict) and summary.get("failure"):
                self.failures += 1


def slicing_backend(spec, clock: SliceClock, mixin=SlicingMixin):
    """The backend ``CampaignRunner`` would have built itself, plus slicing."""
    policy = FaultPolicy(job_timeout=spec.job_timeout, max_retries=spec.max_retries)
    if spec.backend == "process":
        backend = type("SlicedProcessBackend", (mixin, ProcessPoolBackend), {})(
            workers=spec.workers, policy=policy
        )
    else:
        backend = type("SlicedSerialBackend", (mixin, SerialBackend), {})(policy=policy)
    backend.clock = clock
    return backend


class CrashPointJournal(CampaignJournal):
    """A journal that copies its corpus dir right after the last checkpoint.

    A copy taken at that instant, with the clock stopped, holds exactly what
    a SIGKILL there would leave on disk (both see only what reached the
    kernel), so it is the input of the ``resume_s`` metric: recovery with no
    simulation left to redo.
    """

    clock: SliceClock
    crash_dir: str
    checkpoints_left: int

    def append(self, type, data):
        record = super().append(type, data)
        if type == "generation_checkpoint":
            self.checkpoints_left -= 1
            if self.checkpoints_left == 0:
                corpus_dir = os.path.dirname(self.path)
                self.clock.switch(
                    "between", untimed=lambda: shutil.copytree(corpus_dir, self.crash_dir)
                )
        return record


def plain_seams(spec, corpus_dir: str, clock: SliceClock, crash_dir: Optional[str]) -> Dict[str, Any]:
    """Untraced rounds inject the slicing backend and nothing else, except the
    rounds whose corpus feeds the read side, which also plant the crash copy."""
    seams: Dict[str, Any] = {"backend": slicing_backend(spec, clock)}
    if crash_dir is not None:
        journal = CrashPointJournal(CampaignJournal.corpus_path(corpus_dir))
        journal.clock = clock
        journal.crash_dir = crash_dir
        journal.checkpoints_left = expected_checkpoints(spec)
        seams["journal"] = journal
    return seams


# ---------------------------------------------------------------------- #
# One campaign round
# ---------------------------------------------------------------------- #


@dataclass
class RoundResult:
    campaign_seed: int
    digest: str
    candidates: int
    simulated: int
    cache_hits: int
    failures: int
    corpus_entries: int
    archive_cells: int
    journal_bytes: int
    disk_bytes: int
    batches: int
    calibrated_s: float                    #: calibrated CPU seconds, children included
    raw_s: float                           #: uncalibrated wall seconds
    slices: List[Slice]
    corpus_dir: str
    manifest_ok: bool
    cache_stats: Dict[str, Any] = field(default_factory=dict)

    def pins(self) -> Dict[str, Any]:
        """What ``golden.json`` pins for this (workload, campaign seed)."""
        return {
            "digest": self.digest,
            "candidates": self.candidates,
            "simulated": self.simulated,
            "cache_hits": self.cache_hits,
            # Alternating "between batches" and "inside evaluate_batch".
            "slices": 2 * self.batches + 1,
            "corpus_entries": self.corpus_entries,
            "archive_cells": self.archive_cells,
        }


def run_round(
    workload: Workload,
    campaign_seed: int,
    corpus_dir: str,
    kernel: ReferenceKernel,
    make_seams: Callable[..., Dict[str, Any]] = plain_seams,
    crash_dir: Optional[str] = None,
) -> RoundResult:
    """One campaign, timed from store construction to ``run()`` returning."""
    spec = workload.spec(campaign_seed)
    clock = SliceClock(kernel)
    clock.start("between")
    try:
        seams = make_seams(spec, corpus_dir, clock, crash_dir)
        store = seams.pop("store", None)
        if store is None:
            store = CorpusStore(corpus_dir)
        backend = seams["backend"]
        try:
            result = CampaignRunner(spec, store, **seams).run()
        finally:
            # An injected backend is the caller's to close; a runner that
            # built its own would have torn the pool down inside run().
            backend.close()
    finally:
        clock.stop()

    manifest = read_manifest(corpus_dir) or {}
    digest = result.deterministic_digest()
    simulated = sum(outcome.evaluations for outcome in result.outcomes)
    hits = sum(outcome.cache_hits for outcome in result.outcomes)
    return RoundResult(
        campaign_seed=campaign_seed,
        digest=digest,
        candidates=simulated + hits,
        simulated=simulated,
        cache_hits=hits,
        failures=backend.failures,
        batches=backend.batches,
        calibrated_s=clock.calibrated(),
        raw_s=clock.raw(),
        corpus_entries=len(store),
        archive_cells=int(result.coverage.get("cells", 0)),
        journal_bytes=os.path.getsize(CampaignJournal.corpus_path(corpus_dir)),
        disk_bytes=tree_bytes(corpus_dir),
        slices=clock.slices,
        corpus_dir=corpus_dir,
        manifest_ok=(manifest.get("result") or {}).get("deterministic_digest") == digest,
        cache_stats=dict(result.cache_stats),
    )


# ---------------------------------------------------------------------- #
# Correctness ledger
# ---------------------------------------------------------------------- #


class Ledger:
    """Counts operations attempted and failed; remembers why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.problems) < 20:
            self.problems.append(f"{failed} x {what}")


GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def load_golden() -> Dict[str, Dict[str, Dict[str, Any]]]:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)["workloads"]


def write_golden(workloads: Sequence[Workload], seed: int, scratch: str) -> None:
    """Pin every campaign seed a default-length run at ``seed`` uses.

    Workloads not named keep the pins they have.
    """
    kernel = ReferenceKernel()
    pinned = load_golden()
    for workload in workloads:
        pinned[workload.name] = {}
        for campaign_seed in range(seed, seed + workload.rounds):
            corpus_dir = os.path.join(scratch, f"golden-{workload.name}-{campaign_seed}")
            pinned[workload.name][str(campaign_seed)] = run_round(
                workload, campaign_seed, corpus_dir, kernel
            ).pins()
            shutil.rmtree(corpus_dir, ignore_errors=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump({"seed": seed, "workloads": pinned}, handle, indent=1, sort_keys=True)
        handle.write("\n")


def check_round(ledger: Ledger, workload: Workload, golden, result: RoundResult) -> None:
    """A round counts one op per candidate plus one for its digest.

    Campaign seeds pinned in ``golden.json`` are held to it; any other seed is
    held to what the spec fixes (candidate count, manifest digest) and, later,
    to the resume and traced rounds of the same seed reproducing its digest.
    """
    ledger.count(result.candidates, result.failures, "failure outcome")
    spec = workload.spec(result.campaign_seed)
    ok = result.candidates == expected_candidates(spec) and result.manifest_ok
    pinned = golden.get(workload.name, {}).get(str(result.campaign_seed))
    if pinned is not None:
        ok = ok and result.pins() == pinned
    ledger.check(ok, f"{workload.name} seed {result.campaign_seed}: {result.pins()} != {pinned}")


# ---------------------------------------------------------------------- #
# Read side
# ---------------------------------------------------------------------- #


def pick_fingerprint(corpus_dir: str) -> str:
    """The entry the light query pass looks up: first fuzz-found, else first."""
    index = read_corpus_index(corpus_dir)
    fuzz = sorted(fp for fp, row in index.items() if row.get("origin") == "fuzz")
    return (fuzz or sorted(index))[0]


def has_error(payload: Any) -> bool:
    return payload is None or (isinstance(payload, dict) and "error" in payload)


class ReadSide:
    """Resume, compact and query passes over one finished corpus."""

    def __init__(
        self, kernel: ReferenceKernel, ledger: Ledger, round_result: RoundResult,
        crash_dir: str, scratch: str, cca: str,
    ) -> None:
        self.kernel = kernel
        self.ledger = ledger
        self.round = round_result
        self.crash_dir = crash_dir
        self.scratch = scratch
        self.cca = cca
        self.corpus_dir = round_result.corpus_dir
        self.fingerprint = pick_fingerprint(self.corpus_dir)
        self.replay = ReplayService(self.corpus_dir)
        # Warm the one (entry, cca) pair the light pass replays: the pass
        # measures the cached path; the cold one is a per-layer metric.
        self.ledger.check(
            not has_error(self.replay.replay(self.fingerprint, cca)), "replay warm-up"
        )

    def close(self) -> None:
        self.replay.close()

    def _fresh(self, name: str) -> str:
        path = os.path.join(self.scratch, name)
        shutil.rmtree(path, ignore_errors=True)
        return path

    def resume(self) -> Timing:
        """Recovery of the corpus killed right after its last checkpoint."""
        target = self._fresh("resume")
        shutil.copytree(self.crash_dir, target)
        digests: List[str] = []

        def operation() -> None:
            digests.append(CampaignRunner.resume(target).run().deterministic_digest())

        cut = self._guarded("resume", operation)
        self.ledger.check(
            digests == [self.round.digest],
            f"resume of seed {self.round.campaign_seed} digest {digests} != {self.round.digest}",
        )
        return cut

    def compact(self) -> Timing:
        target = self._fresh("compact")
        os.makedirs(target)
        journal_path = CampaignJournal.corpus_path(target)
        shutil.copy(CampaignJournal.corpus_path(self.corpus_dir), journal_path)
        reports: List[Any] = []
        cut = self._guarded(
            "compact", lambda: reports.append(CampaignJournal(journal_path).compact())
        )
        ok = bool(reports) and reports[0] is not None and reports[0]["records_after"] == 1
        self.ledger.check(ok, f"compact returned {reports}")
        return cut

    def light(self) -> Timing:
        """status, stream, corpus index, one entry, Prometheus, cached replay.

        One pass is about a millisecond — less than the kernel that brackets
        it — so ``LIGHT_PASSES`` of them share a clock and one is reported.
        """
        # A fresh query object per pass: status() folds the whole telemetry
        # stream the first time it is polled, which is the work to measure.
        queries = [DashboardQuery(self.corpus_dir) for _ in range(LIGHT_PASSES)]
        payloads: List[Any] = []

        def operation() -> None:
            for query in queries:
                payloads.append(query.status())
                payloads.append(query.stream(0))
                payloads.append(query.corpus_index())
                payloads.append(query.corpus_entry(self.fingerprint))
                payloads.append({"text": query.prometheus()})
                payloads.append(self.replay.replay(self.fingerprint, self.cca))

        cut = self._guarded("light query", operation)
        ok = len(payloads) == 6 * LIGHT_PASSES and not any(has_error(p) for p in payloads)
        ok = ok and payloads[5].get("cached") is True and payloads[2]["entries"] == self.round.corpus_entries
        self.ledger.check(ok, "light query pass returned an error payload")
        return cut.per(LIGHT_PASSES)

    def heavy(self) -> Timing:
        """coverage + rankings: each replays the whole journal."""
        query = DashboardQuery(self.corpus_dir)
        payloads: List[Any] = []

        def operation() -> None:
            payloads.append(query.coverage())
            payloads.append(query.rankings())

        cut = self._guarded("heavy query", operation)
        ok = len(payloads) == 2 and not any(has_error(p) for p in payloads)
        self.ledger.check(ok, "heavy query pass returned an error payload")
        return cut

    def _guarded(self, what: str, operation: Callable[[], None]) -> Timing:
        def run() -> None:
            try:
                operation()
            except Exception as error:  # a raising read call is a failed op, not a crash
                self.ledger.check(False, f"{what} raised {error!r}")

        return timed(self.kernel, run)


# ---------------------------------------------------------------------- #
# Set-up launches
# ---------------------------------------------------------------------- #


def setup_launch(kernel: ReferenceKernel, ledger: Ledger, workload: Workload, seed: int, scratch: str) -> Timing:
    """A fresh interpreter importing ``repro.cli`` and constructing the
    workload's spec, ``CorpusStore`` and ``CampaignRunner`` without running."""
    target = os.path.join(scratch, "setup")
    shutil.rmtree(target, ignore_errors=True)
    spec_json = json.dumps(workload.spec_dict(seed))
    codes: List[int] = []
    cut = timed(
        kernel,
        lambda: codes.append(
            subprocess.run([sys.executable, SETUP_PROBE, spec_json, target]).returncode
        ),
    )
    ledger.check(codes == [0], f"set-up probe exited {codes}")
    return cut


# ---------------------------------------------------------------------- #
# The untraced run
# ---------------------------------------------------------------------- #


def warm_up(workload: Workload, kernel: ReferenceKernel, scratch: str) -> None:
    """One short campaign plus one pass of every read operation, unmeasured:
    lazy imports and first-call set-up finish before anything is timed."""
    payload = workload.spec_dict(0)
    payload["budget"] = dict(payload["budget"], generations=1, population_size=2)
    short = Workload(workload.name, workload.why, 1, 1, 1, payload)
    corpus_dir = os.path.join(scratch, "warm")
    crash_dir = os.path.join(scratch, "warm-crash")
    result = run_round(short, 0, corpus_dir, kernel, crash_dir=crash_dir)
    reads = ReadSide(kernel, Ledger(), result, crash_dir, scratch, short.spec(0).ccas[0])
    try:
        reads.resume()
        reads.compact()
        reads.light()
        reads.heavy()
    finally:
        reads.close()
    for path in (corpus_dir, crash_dir):
        shutil.rmtree(path, ignore_errors=True)


def peak_rss_mib() -> float:
    """High-water RSS of this process plus its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def scaled(count: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(count * scale)))


def measure_end_to_end(
    workload: Workload,
    seed: int,
    scale: float,
    scratch: str,
    setup_launches: int = 5,
) -> Dict[str, Any]:
    """Run the workload untraced; returns metrics, raw twins and the ledger."""
    kernel = ReferenceKernel()
    ledger = Ledger()
    golden = load_golden()
    warm_up(workload, kernel, scratch)

    rounds = scaled(workload.rounds, scale, floor=2)
    kept = min(rounds, scaled(workload.read_corpora, scale))
    results: List[RoundResult] = []
    for index in range(rounds):
        corpus_dir = os.path.join(scratch, f"round-{index}")
        crash_dir = os.path.join(scratch, f"crash-{index}") if index < kept else None
        result = run_round(workload, seed + index, corpus_dir, kernel, crash_dir=crash_dir)
        check_round(ledger, workload, golden, result)
        results.append(result)
        if index >= kept:
            shutil.rmtree(corpus_dir, ignore_errors=True)
    peak_rss = peak_rss_mib()

    cuts: Dict[str, List[List[Timing]]] = {"resume": [], "compact": [], "light": [], "heavy": []}
    cca = workload.spec(seed).ccas[0]
    for index in range(kept):
        reads = ReadSide(
            kernel, ledger, results[index], os.path.join(scratch, f"crash-{index}"), scratch, cca
        )
        try:
            for name in cuts:
                operation = getattr(reads, name)
                repeats = LIGHT_REPEATS if name == "light" else workload.read_repeats
                cuts[name].append([operation() for _ in range(repeats)])
        finally:
            reads.close()

    launches = [
        setup_launch(kernel, ledger, workload, seed, scratch) for _ in range(setup_launches)
    ]

    candidates = sum(r.candidates for r in results)
    calibrated = sum(r.calibrated_s for r in results)
    raw = sum(r.raw_s for r in results)

    def read_value(name: str, attribute: str) -> float:
        # Per corpus the median over its repeats (identical work), then the
        # median over corpora (different campaign seeds, different lengths):
        # one stalled call in a handful must not carry the metric.
        return median([median([getattr(c, attribute) for c in group]) for group in cuts[name]])

    def metrics(attribute: str, campaign_s: float) -> Dict[str, float]:
        return {
            "evals_per_s": candidates / campaign_s,
            "resume_s": read_value("resume", attribute),
            "compact_s": read_value("compact", attribute),
            "query_light_ms": 1e3 * read_value("light", attribute),
            "query_heavy_ms": 1e3 * read_value("heavy", attribute),
            "setup_s": median([getattr(c, attribute) for c in launches]),
        }

    values = metrics("calibrated", calibrated)
    values.update(
        {
            "journal_bytes_per_eval": sum(r.journal_bytes for r in results) / candidates,
            "disk_bytes_per_eval": sum(r.disk_bytes for r in results) / candidates,
            "peak_rss_mb": peak_rss,
        }
    )
    return {
        "metrics": values,
        "raw": metrics("raw", raw),
        "ledger": ledger,
        "info": {
            "rounds": rounds,
            "read_corpora": kept,
            "candidates": candidates,
            "timed_slices_per_round": len(results[0].slices),
            "kernel_cpu_ms_median": 1e3 * median(
                [s.after[1] for r in results for s in r.slices]
            ),
            "cpu_share_of_wall": sum(s.cpu for r in results for s in r.slices) / raw,
        },
    }
