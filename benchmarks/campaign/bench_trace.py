"""The traced run of one workload: every per-layer metric.

Recording subclasses are injected at the public seams of ``CampaignRunner``
(backend, cache, journal, telemetry, archive, corpus store) plus a counting
wrapper on ``os.fsync``.  Spans — name, start, end, parent — stay in memory
until the run ends.  A span's calibrated duration is the part of it that
overlaps timed slices, each part scaled by its slice's factor; self time is
the span minus its children.  Jobs captured at the backend are then replayed
through direct public calls to split the inside of a batch.

Layer names are the package names under ``src/repro``.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import os
import pickle
import random
import shutil
import subprocess
import sys
import time
import urllib.request
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from bench_estimator import ReferenceKernel, Slice, SliceClock, median, timed
from bench_measure import (
    Ledger,
    RoundResult,
    SlicingMixin,
    check_round,
    load_golden,
    pick_fingerprint,
    run_round,
    slicing_backend,
    tree_bytes,
    warm_up,
)
from bench_workloads import SRC_DIR, Workload, expected_checkpoints

from repro.campaign import CorpusStore  # noqa: E402 - bench_measure put src/ on the path
from repro.core.fuzzer import FuzzConfig  # noqa: E402
from repro.coverage.archive import BehaviorArchive  # noqa: E402
from repro.coverage.signature import extract_signature  # noqa: E402
from repro.exec.backend import ProcessPoolBackend, SerialBackend  # noqa: E402
from repro.exec.cache import TraceCache  # noqa: E402
from repro.exec.workers import simulate_packet_trace  # noqa: E402
from repro.journal import CampaignJournal  # noqa: E402
from repro.journal.log import read_journal_view  # noqa: E402
from repro.obs.telemetry import CampaignTelemetry  # noqa: E402
from repro.serve.query import DashboardQuery  # noqa: E402
from repro.serve.replay import ReplayService  # noqa: E402
from repro.serve.server import DashboardServer  # noqa: E402
from repro.traces.crossover import crossover_traces  # noqa: E402
from repro.traces.mutation import mutate_trace  # noqa: E402
from repro.traces.trace import LinkTrace  # noqa: E402

#: Traced rounds (and the untraced rounds they are compared against).
TRACED_ROUNDS = 2


# ---------------------------------------------------------------------- #
# Spans
# ---------------------------------------------------------------------- #


class Tracer:
    """In-memory span log: ``[name, start, end, parent index]`` per span."""
    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []

    def begin(self, name: str) -> None:
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(len(self.spans) - 1)

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.begin(name)
        try:
            yield
        finally:
            self.end()


def traced_subclass(base: type, tracer: Tracer, methods: Dict[str, str]) -> type:
    """Subclass ``base`` so each listed public method runs inside a span."""
    def wrap(method_name: str, span_name: str) -> Callable[..., Any]:
        original = getattr(base, method_name)

        def traced(self, *args, **kwargs):
            tracer.begin(span_name)
            try:
                return original(self, *args, **kwargs)
            finally:
                tracer.end()

        traced.__name__ = method_name
        return traced

    namespace = {name: wrap(name, span) for name, span in methods.items()}
    return type(f"Traced{base.__name__}", (base,), namespace)


@contextlib.contextmanager
def traced_fsync(tracer: Tracer) -> Iterator[None]:
    """Count and time every ``os.fsync`` the program issues."""
    original = os.fsync

    def fsync(fd):
        tracer.begin("os.fsync")
        try:
            return original(fd)
        finally:
            tracer.end()

    os.fsync = fsync
    try:
        yield
    finally:
        os.fsync = original


class Calibration:
    """Maps wall intervals onto calibrated seconds through the slice log.

    Spans carry wall timestamps, so layer times are calibrated wall time
    (waits included), unlike the end-to-end metrics, which are CPU time.
    """

    @staticmethod
    def total(slices: Sequence[Slice]) -> float:
        return sum(cut.raw * cut.wall_factor for cut in slices)
    def __init__(self, slices: Sequence[Slice]) -> None:
        ordered = sorted(slices, key=lambda s: s.start)
        self._starts = [s.start for s in ordered]
        self._raws = [s.raw for s in ordered]
        self._factors = [s.wall_factor for s in ordered]
        self._cumulative = [0.0]
        for cut in ordered:
            self._cumulative.append(self._cumulative[-1] + cut.raw * cut.wall_factor)

    def _at(self, moment: float) -> float:
        index = bisect.bisect_right(self._starts, moment) - 1
        if index < 0:
            return 0.0
        inside = min(moment - self._starts[index], self._raws[index])
        return self._cumulative[index] + inside * self._factors[index]

    def duration(self, start: float, end: float) -> float:
        """Calibrated seconds of ``[start, end]``; kernel time counts as zero."""
        return self._at(end) - self._at(start)


class SpanTable:
    """Calibrated duration and self time per span, with sums by name."""
    def __init__(self, tracer: Tracer, slices: Sequence[Slice]) -> None:
        self.calibration = Calibration(slices)
        self.spans = tracer.spans
        self.duration = [self.calibration.duration(s[1], s[2]) for s in self.spans]
        self.self_time = list(self.duration)
        for index, span in enumerate(self.spans):
            if span[3] >= 0:
                self.self_time[span[3]] -= self.duration[index]

    def total(self, prefix: str, self_only: bool = False, under: Optional[str] = None) -> float:
        values = self.self_time if self_only else self.duration
        return sum(values[i] for i in self._matching(prefix, under))

    def count(self, prefix: str, under: Optional[str] = None) -> int:
        return len(self._matching(prefix, under))

    def _matching(self, prefix: str, under: Optional[str]) -> List[int]:
        return [
            index
            for index, span in enumerate(self.spans)
            if span[0].startswith(prefix)
            and (under is None or (span[3] >= 0 and self.spans[span[3]][0].startswith(under)))
        ]

    def dump(self) -> List[Dict[str, Any]]:
        return [
            {
                "name": span[0], "start": span[1], "end": span[2], "parent": span[3],
                "calibrated_s": self.duration[index], "self_s": self.self_time[index],
            }
            for index, span in enumerate(self.spans)
        ]


# ---------------------------------------------------------------------- #
# Recording seams
# ---------------------------------------------------------------------- #


class RecordingMixin(SlicingMixin):
    """The slicing backend, plus a span per batch and every job and outcome."""
    tracer: Tracer
    captured: List[Tuple[Any, Any]]

    def _timed_batch(self, jobs):
        with self.tracer.span("exec.evaluate_batch"):
            return super()._timed_batch(jobs)

    def _inspect(self, jobs, outcomes) -> None:
        super()._inspect(jobs, outcomes)
        self.captured.extend(zip(jobs, outcomes))


def traced_seams(tracer: Tracer, captured: List[Tuple[Any, Any]]):
    """A ``make_seams`` for :func:`bench_measure.run_round` that records."""
    def make(spec, corpus_dir: str, clock: SliceClock, crash_dir: Optional[str]) -> Dict[str, Any]:

        backend = slicing_backend(spec, clock, mixin=RecordingMixin)
        backend.tracer = tracer
        backend.captured = captured
        cache_type = traced_subclass(
            TraceCache, tracer,
            {"get": "exec.cache.get", "put": "exec.cache.put", "dump": "exec.cache.dump"},
        )
        journal_type = traced_subclass(CampaignJournal, tracer, {"append": "journal.append"})
        telemetry_type = traced_subclass(
            CampaignTelemetry, tracer,
            {
                name: f"obs.{name}"
                for name in ("campaign_started", "scenario_span", "generation",
                             "scenario_completed", "campaign_completed", "close")
            },
        )
        archive_type = traced_subclass(
            BehaviorArchive, tracer,
            {"observe": "coverage.archive.observe", "delta_since": "coverage.archive.delta_since",
             "save": "coverage.archive.save"},
        )
        store_type = traced_subclass(
            CorpusStore, tracer,
            {"add": "campaign.corpus.add", "seeds_for": "campaign.corpus.seeds_for"},
        )
        population = spec.budget.population_size * spec.budget.islands
        return {
            "backend": backend,
            # The cache the runner would have built for itself.
            "cache": cache_type(
                max_entries=max(8192, 8 * population * spec.scenario_count), thread_safe=True
            ),
            "journal": journal_type(CampaignJournal.corpus_path(corpus_dir)),
            "telemetry": telemetry_type(corpus_dir),
            "archive": archive_type(),
            "store": store_type(corpus_dir),
        }

    return make


# ---------------------------------------------------------------------- #
# Replaying captured jobs through direct public calls
# ---------------------------------------------------------------------- #


def replay_jobs(kernel: ReferenceKernel, ledger: Ledger, captured) -> Dict[str, float]:
    """Simulate, score, summarise and sign every captured job directly."""
    clock = SliceClock(kernel)
    marks: List[Tuple[float, float, float, float, float]] = []
    events = 0
    mismatches = 0
    clock.start("replay")
    for job, (score, summary) in captured:
        t0 = time.perf_counter()
        result = simulate_packet_trace(job.cca_factory, job.sim_config, job.trace)
        t1 = time.perf_counter()
        replayed = job.score_function(result, job.trace)
        t2 = time.perf_counter()
        replayed_summary = result.summary()
        t3 = time.perf_counter()
        replayed_summary["behavior_signature"] = extract_signature(result).to_dict()
        t4 = time.perf_counter()
        marks.append((t0, t1, t2, t3, t4))
        events += result.events_executed
        if replayed != score or replayed_summary != summary:
            mismatches += 1
    clock.stop()
    calibration = Calibration(clock.slices)
    ledger.count(len(captured), mismatches, "replayed job differs from the batch's outcome")

    jobs = max(1, len(captured))
    phases = [
        sum(calibration.duration(mark[i], mark[i + 1]) for mark in marks) for i in range(4)
    ]
    return {
        "sim_s": phases[0],
        "score_s": phases[1],
        "summary_s": phases[2],
        "signature_s": phases[3],
        "direct_s": sum(phases),
        "events": float(events),
        "jobs": float(jobs),
        "job_pickle_bytes": sum(len(pickle.dumps(job)) for job, _ in captured) / jobs,
        "outcome_pickle_bytes": sum(len(pickle.dumps(outcome)) for _, outcome in captured) / jobs,
    }


def replay_operators(kernel: ReferenceKernel, captured, seed: int) -> Dict[str, float]:
    """Per-call cost of the GA's mutation and crossover on captured traces."""
    traces = [job.trace for job, _ in captured]
    rng = random.Random(seed)
    clock = SliceClock(kernel)
    clock.start("replay")
    mutate_marks: List[Tuple[float, float]] = []
    for trace in traces:
        t0 = time.perf_counter()
        mutate_trace(trace, rng)
        mutate_marks.append((t0, time.perf_counter()))
    cross_marks: List[Tuple[float, float]] = []
    for left, right in zip(traces, traces[1:]):
        # Link traces have no crossover operator (the packet budget is fixed).
        if type(left) is not type(right) or isinstance(left, LinkTrace):
            continue
        t0 = time.perf_counter()
        crossover_traces(left, right, rng)
        cross_marks.append((t0, time.perf_counter()))
    clock.stop()
    calibration = Calibration(clock.slices)

    def per_call_us(marks) -> float:
        if not marks:
            return 0.0
        return 1e6 * sum(calibration.duration(a, b) for a, b in marks) / len(marks)

    return {"mutate_us": per_call_us(mutate_marks), "crossover_us": per_call_us(cross_marks)}


# ---------------------------------------------------------------------- #
# Direct measurements: pool start, serve endpoints, import, journal
# ---------------------------------------------------------------------- #


def calibrated_ms(kernel: ReferenceKernel, operations: Sequence[Callable[[], Any]]) -> float:
    """Per-call calibrated milliseconds of ``operations`` run back to back."""

    def run_all() -> None:
        for operation in operations:
            operation()

    return 1e3 * timed(kernel, run_all).calibrated / len(operations)


#: Repeats behind every directly timed per-layer number (1 in smoke mode).
DEFAULT_REPEATS = 3


class Probe:
    """Times direct calls: the median of ``repeats`` calibrated measurements."""

    def __init__(self, kernel: ReferenceKernel, repeats: int) -> None:
        self.kernel = kernel
        self.repeats = repeats

    def median_ms(self, make: Callable[[], Sequence[Callable[[], Any]]]) -> float:
        return median([calibrated_ms(self.kernel, make()) for _ in range(self.repeats)])


def pool_start_ms(probe: Probe, spec, captured) -> float:
    """Starting and stopping the pool around one job, over running it inline.

    The worker's CPU time only arrives when it is reaped, so the pool is
    closed inside the timed call.
    """
    if spec.backend != "process" or not captured:
        return 0.0
    job = captured[0][0]

    def through_pool() -> None:
        with ProcessPoolBackend(workers=spec.workers) as backend:
            backend.evaluate_batch([job])

    def inline() -> None:
        with SerialBackend() as backend:
            backend.evaluate_batch([job])

    return probe.median_ms(lambda: [through_pool]) - probe.median_ms(lambda: [inline])


def serve_metrics(probe: Probe, ledger: Ledger, corpus_dir: str, cca: str) -> Dict[str, float]:

    fingerprint = pick_fingerprint(corpus_dir)
    passes = 10
    warm = ReplayService(corpus_dir)
    warm.replay(fingerprint, cca)

    def fresh_queries(method: str, *args) -> List[Callable[[], Any]]:
        return [
            (lambda q=DashboardQuery(corpus_dir): getattr(q, method)(*args)) for _ in range(passes)
        ]

    values = {
        "serve.status_ms": probe.median_ms(lambda: fresh_queries("status")),
        "serve.stream_ms": probe.median_ms(lambda: fresh_queries("stream", 0)),
        "serve.corpus_index_ms": probe.median_ms(lambda: fresh_queries("corpus_index")),
        "serve.corpus_entry_ms": probe.median_ms(lambda: fresh_queries("corpus_entry", fingerprint)),
        "serve.replay_cached_ms": probe.median_ms(
            lambda: [lambda: warm.replay(fingerprint, cca)] * passes
        ),
        "serve.replay_cold_ms": probe.median_ms(
            lambda: [lambda: ReplayService(corpus_dir).replay(fingerprint, cca)]
        ),
        "serve.coverage_ms": probe.median_ms(lambda: [DashboardQuery(corpus_dir).coverage]),
        "serve.rankings_ms": probe.median_ms(lambda: [DashboardQuery(corpus_dir).rankings]),
    }
    warm.close()

    # One real GET through ThreadingHTTPServer against the direct call.
    with DashboardServer(corpus_dir, port=0) as server:
        url = f"{server.url}/api/corpus"
        statuses: List[int] = []

        def get() -> None:
            with urllib.request.urlopen(url, timeout=30) as response:
                response.read()
                statuses.append(response.status)

        get()  # first request pays urllib's and the handler's lazy imports
        over_http = probe.median_ms(lambda: [get] * passes)
        direct = probe.median_ms(lambda: [server.query.corpus_index] * passes)
    ledger.check(set(statuses) == {200}, f"GET /api/corpus answered {sorted(set(statuses))}")
    values["serve.http_overhead_ms"] = over_http - direct
    return values


def import_ms(probe: Probe, ledger: Ledger) -> float:
    """A fresh interpreter importing ``repro.cli``, minus a bare interpreter."""
    codes: List[int] = []

    def launch(code: str) -> Callable[[], None]:
        return lambda: codes.append(subprocess.run([sys.executable, "-c", code]).returncode)

    importing = f"import sys; sys.path.insert(0, {SRC_DIR!r}); import repro.cli"
    with_import = probe.median_ms(lambda: [launch(importing)])
    bare = probe.median_ms(lambda: [launch("pass")])
    ledger.check(set(codes) == {0}, f"import probe exited {sorted(set(codes))}")
    return with_import - bare


def journal_breakdown(journal_path: str) -> Dict[str, float]:
    """Bytes by record type, snapshot and cache-dump sizes, from the file."""
    by_type: Dict[str, int] = {}
    snapshot_bytes = 0
    last_dump_bytes = 0
    checkpoints = 0
    records = CampaignJournal(journal_path).records()
    for record in records:
        by_type[record.type] = by_type.get(record.type, 0) + len(record.to_line().encode("utf-8"))
        if record.type == "generation_checkpoint":
            checkpoints += 1
            snapshot_bytes += len(json.dumps(record.data.get("fuzzer")))
            last_dump_bytes = len(json.dumps(record.data.get("cache")))
    named = ("generation_checkpoint", "behavior_delta", "corpus_insert")
    return {
        "records": float(len(records)),
        "generation_checkpoint": float(by_type.get("generation_checkpoint", 0)),
        "behavior_delta": float(by_type.get("behavior_delta", 0)),
        "corpus_insert": float(by_type.get("corpus_insert", 0)),
        "other": float(sum(size for name, size in by_type.items() if name not in named)),
        "snapshot_bytes_per_gen": snapshot_bytes / max(1, checkpoints),
        "cache_dump_bytes_last": float(last_dump_bytes),
    }


def journal_read_metrics(probe: Probe, ledger: Ledger, journal_path: str, scratch: str) -> Dict[str, float]:

    replay_ms = probe.median_ms(lambda: [lambda: read_journal_view(journal_path)])
    target = os.path.join(scratch, "compact-ratio")
    shutil.rmtree(target, ignore_errors=True)
    os.makedirs(target)
    copy = CampaignJournal.corpus_path(target)
    shutil.copy(journal_path, copy)
    report = CampaignJournal(copy).compact()
    ledger.check(report is not None, "compact of the traced journal returned nothing")
    ratio = report["bytes_after"] / report["bytes_before"] if report else 0.0
    return {"journal.replay_ms": replay_ms, "journal.compact_ratio": ratio}


# ---------------------------------------------------------------------- #
# The traced run
# ---------------------------------------------------------------------- #


def estimated_operator_calls(spec) -> Tuple[int, int]:
    """(mutations, crossovers) one campaign performs, from the GA's rules:
    every non-elite slot of every generation after the first is a mutated
    child, and ``crossover_fraction`` of them are crossed over first."""
    defaults = FuzzConfig()
    budget = spec.budget
    children = (
        spec.scenario_count * budget.islands
        * max(0, budget.population_size - defaults.k_elite) * (budget.generations - 1)
    )
    return children, int(round(children * defaults.crossover_fraction))


def measure_per_layer(
    workload: Workload, seed: int, scratch: str, rounds: int = TRACED_ROUNDS,
    repeats: int = DEFAULT_REPEATS, warm: bool = True, trace_out: Optional[str] = None,
) -> Dict[str, Any]:
    """Untraced then traced rounds on the same seeds; returns layer metrics.

    ``warm=False`` skips the unmeasured warm-up when this process has already
    run the workload (both runs in one child).
    """
    kernel = ReferenceKernel()
    probe = Probe(kernel, repeats)
    ledger = Ledger()
    golden = load_golden()
    if warm:
        warm_up(workload, kernel, scratch)
    seeds = [seed + index for index in range(rounds)]

    untraced: List[RoundResult] = []
    for campaign_seed in seeds:
        corpus_dir = os.path.join(scratch, f"plain-{campaign_seed}")
        untraced.append(run_round(workload, campaign_seed, corpus_dir, kernel))
        check_round(ledger, workload, golden, untraced[-1])
        shutil.rmtree(corpus_dir, ignore_errors=True)

    tracer = Tracer()
    captured: List[Tuple[Any, Any]] = []
    traced: List[RoundResult] = []
    with traced_fsync(tracer):
        for campaign_seed in seeds:
            corpus_dir = os.path.join(scratch, f"traced-{campaign_seed}")
            with tracer.span("campaign.round"):
                traced.append(
                    run_round(workload, campaign_seed, corpus_dir, kernel, traced_seams(tracer, captured))
                )
    for plain, recorded in zip(untraced, traced):
        ledger.count(recorded.candidates, recorded.failures, "failure outcome")
        ledger.check(
            plain.pins() == recorded.pins(),
            f"traced round of seed {plain.campaign_seed} differs: {recorded.pins()} != {plain.pins()}",
        )

    spec = workload.spec(seed)
    slices = [cut for result in traced for cut in result.slices]
    table = SpanTable(tracer, slices)
    round_s = Calibration.total(slices)
    candidates = sum(result.candidates for result in traced)
    simulated = sum(result.simulated for result in traced)
    generations = rounds * expected_checkpoints(spec)
    batch_s = table.total("exec.evaluate_batch")

    replay = replay_jobs(kernel, ledger, captured)
    operators = replay_operators(kernel, captured, seed)
    first = traced[0]
    journal_path = CampaignJournal.corpus_path(first.corpus_dir)
    breakdown = [journal_breakdown(CampaignJournal.corpus_path(r.corpus_dir)) for r in traced]

    def per_candidate(key: str) -> float:
        return sum(part[key] for part in breakdown) / candidates

    # Time inside no seam at all: GA operators, snapshot building, scheduler
    # glue.  What direct replay of the known operators explains is the
    # traces layer's; the rest is the unaccounted remainder.
    root_self = table.total("campaign.round", self_only=True)
    mutations, crossovers = estimated_operator_calls(spec)
    operator_s = rounds * 1e-6 * (
        mutations * operators["mutate_us"] + crossovers * operators["crossover_us"]
    )
    last_completed = max(
        (span[2] for span in tracer.spans if span[0] == "obs.scenario_completed"), default=0.0
    )
    round_spans = [span for span in tracer.spans if span[0] == "campaign.round"]
    finalize_s = table.calibration.duration(last_completed, round_spans[-1][2])

    untraced_rate = sum(r.candidates for r in untraced) / sum(r.calibrated_s for r in untraced)
    traced_rate = candidates / sum(r.calibrated_s for r in traced)
    lookups = sum(r.cache_stats.get("lookups", 0) for r in traced)
    hits = sum(r.cache_stats.get("hits", 0) for r in traced)
    corpus_adds = table.count("campaign.corpus.add")
    telemetry_s = table.total("obs.", self_only=True)
    archive_s = table.total("coverage.archive.observe") + table.total("coverage.archive.delta_since")

    metrics: Dict[str, float] = {
        "netsim.sim_ms_per_eval": 1e3 * replay["sim_s"] / replay["jobs"],
        "netsim.summary_us_per_eval": 1e6 * replay["summary_s"] / replay["jobs"],
        "netsim.events_per_eval": replay["events"] / replay["jobs"],
        "netsim.events_per_s": replay["events"] / replay["sim_s"],
        "scoring.score_us_per_eval": 1e6 * replay["score_s"] / replay["jobs"],
        "coverage.signature_us_per_eval": 1e6 * replay["signature_s"] / replay["jobs"],
        "exec.batch_ms_per_eval": 1e3 * batch_s / max(1, simulated),
        "exec.overhead_fraction": (batch_s - replay["direct_s"]) / batch_s,
        "exec.job_pickle_bytes": replay["job_pickle_bytes"],
        "exec.outcome_pickle_bytes": replay["outcome_pickle_bytes"],
        "exec.pool_start_ms": pool_start_ms(probe, spec, captured),
        "exec.failures": float(sum(r.failures for r in traced)),
        "exec.cache_hit_ratio": hits / max(1, lookups),
        "exec.cache_dump_ms_per_gen": 1e3 * table.total("exec.cache.dump") / generations,
        "exec.cache_dump_bytes_last": breakdown[0]["cache_dump_bytes_last"],
        "core.snapshot_bytes_per_gen": sum(p["snapshot_bytes_per_gen"] for p in breakdown) / len(breakdown),
        "core.ga_ms_per_gen": 1e3 * root_self / generations,
        "traces.mutate_us": operators["mutate_us"],
        "traces.crossover_us": operators["crossover_us"],
        "journal.append_ms_per_eval": 1e3 * table.total("journal.append") / candidates,
        "journal.appends_per_eval": table.count("journal.append") / candidates,
        "journal.fsyncs_per_eval": table.count("os.fsync", under="journal.") / candidates,
        "journal.fsync_ms_per_eval": 1e3 * table.total("os.fsync", under="journal.") / candidates,
        "journal.bytes.generation_checkpoint": per_candidate("generation_checkpoint"),
        "journal.bytes.behavior_delta": per_candidate("behavior_delta"),
        "journal.bytes.corpus_insert": per_candidate("corpus_insert"),
        "journal.bytes.other": per_candidate("other"),
        "campaign.corpus_add_ms_per_entry": 1e3 * table.total("campaign.corpus.add") / max(1, corpus_adds),
        "campaign.corpus_bytes": float(
            tree_bytes(os.path.join(first.corpus_dir, "entries"))
            + os.path.getsize(os.path.join(first.corpus_dir, "index.json"))
        ),
        "campaign.behavior_map_bytes": float(
            os.path.getsize(os.path.join(first.corpus_dir, "behavior_map.json"))
        ),
        "campaign.finalize_ms": 1e3 * finalize_s,
        "campaign.batch_share": batch_s / round_s,
        "campaign.unaccounted_fraction": (root_self - operator_s) / round_s,
        "coverage.archive_ms_per_gen": 1e3 * archive_s / generations,
        "coverage.cells": float(first.archive_cells),
        "obs.telemetry_ms_per_eval": 1e3 * telemetry_s / candidates,
        "obs.metrics_bytes_per_eval": sum(
            os.path.getsize(os.path.join(r.corpus_dir, "metrics.jsonl")) for r in traced
        ) / candidates,
        "trace.overhead_fraction": 1.0 - traced_rate / untraced_rate,
    }
    metrics.update(journal_read_metrics(probe, ledger, journal_path, scratch))
    metrics.update(serve_metrics(probe, ledger, first.corpus_dir, spec.ccas[0]))
    metrics["cli.import_ms"] = import_ms(probe, ledger)

    if trace_out is not None:
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump({"workload": workload.name, "seed": seed, "spans": table.dump()}, handle)
    return {
        "metrics": metrics,
        "ledger": ledger,
        "info": {"spans": len(tracer.spans), "captured_jobs": len(captured)},
    }
