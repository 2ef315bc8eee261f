"""Throughput of the simulation core itself: events/sec and packets/sec.

Unlike the paper-figure benchmarks, this file measures the *simulator fast
path* directly — the slotted event core, the streaming flow monitor and the
lazy TCP timers — in both fuzzing modes, plus one end-to-end GA smoke run.
The measured numbers are emitted to ``BENCH_sim_core.json`` (see
``conftest.sim_core_bench``) so every future PR has a machine-readable perf
trajectory to beat; the committed ``baseline`` section froze the seed-commit
numbers measured with this same harness before the fast path landed.

``-k smoke`` selects every test here (they are all seconds-scale), matching
the CI benchmark-smoke job.

Hard speed assertions are opt-in via ``REPRO_ASSERT_SPEEDUP`` (shared CI
runners are too noisy for an unconditional gate); the CI job instead compares
the fresh JSON against the committed one with a 20% tolerance using
``benchmarks/check_sim_core_regression.py``.
"""

from __future__ import annotations

import os
import time

from conftest import print_rows, run_once

from repro.attacks import builtin_attack_traces
from repro.core import CCFuzz, FuzzConfig
from repro.netsim.packet import CCA_FLOW, CROSS_FLOW
from repro.netsim.simulation import SimulationConfig, run_simulation
from repro.tcp import Reno
from repro.tcp.cca import cca_factory

#: Simulation length for the single-simulation measurements.
DURATION = 5.0

#: Timing repeats; the best (minimum) wall clock is reported.
REPEATS = 3

#: Seed-commit (PR 3, pre-fast-path) numbers, measured with this harness on
#: the reference container.  Frozen here and written into the JSON so the
#: before/after trajectory survives regeneration.
SEED_BASELINE = {
    "commit": "37efce9 (PR 3 seed, pre-fast-path)",
    "traffic_mode": {"events_per_sec": 48544.3, "packets_per_sec": 15545.7},
    "link_mode": {"events_per_sec": 26336.4, "packets_per_sec": 8270.2},
    "fuzz_smoke": {"evals_per_sec": 24.95},
}


def _measure_simulation(cca: str, *, link: bool) -> dict:
    """Best-of-N events/sec and packets/sec for one builtin-attack run."""
    traces = builtin_attack_traces(duration=DURATION)
    trace = traces["bbr-stall-link"] if link else traces["bbr-stall"]
    kwargs = (
        {"link_trace": trace.timestamps}
        if link
        else {"cross_traffic_times": trace.timestamps}
    )
    best = None
    for _ in range(REPEATS):
        config = SimulationConfig(duration=DURATION)
        started = time.perf_counter()
        result = run_simulation(cca_factory(cca), config, **kwargs)
        elapsed = time.perf_counter() - started
        packets = result.monitor.sent_count(CCA_FLOW) + result.monitor.sent_count(CROSS_FLOW)
        row = {
            "wall_clock_s": elapsed,
            # Cross-traffic sink arrivals are counted at service time and are
            # no scheduler events, so traffic mode's `events` fell by
            # `cross_delivered` while its packets/sec rose.
            "events": result.events_executed,
            "cross_delivered": result.cross_delivered,
            "packets": packets,
            "events_per_sec": result.events_executed / elapsed,
            "packets_per_sec": packets / elapsed,
        }
        if best is None or row["wall_clock_s"] < best["wall_clock_s"]:
            best = row
    return best


def _fuzz_smoke_config() -> FuzzConfig:
    """A small serial fuzzing run (the ``fuzz_smoke`` row)."""
    return FuzzConfig(
        mode="traffic",
        population_size=6,
        generations=2,
        duration=1.0,
        max_traffic_packets=60,
        seed=21,
    )


def _maybe_assert_speedup(measured: float, baseline: float, factor: float) -> None:
    """Enforce the acceptance speedup only on opted-in dedicated hardware."""
    if os.environ.get("REPRO_ASSERT_SPEEDUP"):
        assert measured >= factor * baseline, (
            f"expected >= {factor}x over baseline {baseline:.1f}, got {measured:.1f}"
        )


def test_smoke_traffic_mode_events_per_sec(benchmark, sim_core_bench):
    """Traffic-fuzzing mode: BBR vs the builtin bbr-stall cross traffic."""
    sim_core_bench.setdefault("baseline", SEED_BASELINE)
    row = run_once(benchmark, _measure_simulation, "bbr", link=False)
    sim_core_bench["traffic_mode"] = row
    print_rows("sim core: traffic mode (bbr-stall, 5s)", [row])
    assert row["events"] > 1000
    _maybe_assert_speedup(
        row["events_per_sec"], SEED_BASELINE["traffic_mode"]["events_per_sec"], 2.0
    )


def test_smoke_link_mode_events_per_sec(benchmark, sim_core_bench):
    """Link-fuzzing mode: BBR vs the builtin bbr-stall-link service curve."""
    sim_core_bench.setdefault("baseline", SEED_BASELINE)
    row = run_once(benchmark, _measure_simulation, "bbr", link=True)
    sim_core_bench["link_mode"] = row
    print_rows("sim core: link mode (bbr-stall-link, 5s)", [row])
    assert row["events"] > 1000
    _maybe_assert_speedup(
        row["events_per_sec"], SEED_BASELINE["link_mode"]["events_per_sec"], 2.0
    )


def test_smoke_fuzz_end_to_end_evals_per_sec(benchmark, sim_core_bench):
    """End-to-end GA smoke: serial evaluations/sec on the shared smoke config.

    This is the acceptance metric of the fast-path work: the whole fuzzing
    loop — trace generation, simulation, scoring, caching — measured as
    evaluations per second, bit-identical to the seed GA history (asserted
    separately by ``tests/test_sim_golden.py``).
    """
    sim_core_bench.setdefault("baseline", SEED_BASELINE)

    def fuzz_run():
        best_elapsed = None
        result = None
        for _ in range(REPEATS):
            started = time.perf_counter()
            result = CCFuzz(Reno, config=_fuzz_smoke_config()).run()
            elapsed = time.perf_counter() - started
            if best_elapsed is None or elapsed < best_elapsed:
                best_elapsed = elapsed
        return result, best_elapsed

    result, elapsed = run_once(benchmark, fuzz_run)
    row = {
        "wall_clock_s": elapsed,
        "evaluations": result.total_evaluations,
        "evals_per_sec": result.total_evaluations / elapsed,
    }
    sim_core_bench["fuzz_smoke"] = row
    print_rows("sim core: fuzz smoke (Reno, 6 traces x 2 generations)", [row])
    assert result.total_evaluations > 0
    _maybe_assert_speedup(
        row["evals_per_sec"], SEED_BASELINE["fuzz_smoke"]["evals_per_sec"], 2.0
    )


def test_smoke_telemetry_overhead(benchmark, sim_core_bench):
    """Cost of the metrics instrumentation on the fuzzing hot path.

    Wall-clock A/B runs cannot resolve the true cost on shared runners (the
    instrumentation is a handful of registry calls per *simulation*, i.e.
    microseconds against ~100ms of simulating, while run-to-run jitter is
    tens of percent).  So the gated number is computed from two stable
    measurements instead:

    * ``ops_per_eval`` — registry operations a full GA evaluation performs,
      counted exactly by swapping in a counting registry for one smoke run
      (covers the sim, fuzzer, exec, cache and journal instrumentation);
    * ``per_op_cost_s`` — the cost of one registry operation, measured over
      a 200k-op tight loop (long enough that scheduler noise averages out).

    ``overhead_fraction = ops_per_eval * per_op_cost_s / cpu_s_per_eval``.
    This stays exact under noise *and* catches the failure mode the budget
    exists for: instrumenting per event instead of per simulation multiplies
    ``ops_per_eval`` by ~10^4 and blows the 2% gate immediately.  The CI
    benchmark job enforces the budget via
    ``check_sim_core_regression.py --telemetry-budget``.  A/B events/sec
    rates are still reported for eyeballing, but not gated.
    """
    import repro.obs.metrics as metrics_mod
    from repro.obs.metrics import MetricsRegistry, set_enabled

    sim_core_bench.setdefault("baseline", SEED_BASELINE)

    class CountingRegistry(MetricsRegistry):
        def __init__(self) -> None:
            super().__init__()
            self.ops = 0

        def inc(self, name, value=1):
            self.ops += 1
            super().inc(name, value)

        def gauge_set(self, name, value):
            self.ops += 1
            super().gauge_set(name, value)

        def gauge_add(self, name, delta):
            self.ops += 1
            super().gauge_add(name, delta)

        def observe(self, name, value):
            self.ops += 1
            super().observe(name, value)

    def measure() -> dict:
        # Exact op count + CPU seconds for one full GA smoke run.
        counting = CountingRegistry()
        saved = metrics_mod._REGISTRY
        metrics_mod._REGISTRY = counting
        try:
            cpu_started = time.process_time()
            result = CCFuzz(Reno, config=_fuzz_smoke_config()).run()
            cpu_s = time.process_time() - cpu_started
        finally:
            metrics_mod._REGISTRY = saved
        evaluations = result.total_evaluations
        ops_per_eval = counting.ops / evaluations
        cpu_s_per_eval = cpu_s / evaluations

        # Per-op cost over a tight loop (alternating the two hot-path ops).
        scratch = MetricsRegistry()
        loops = 100_000
        op_started = time.process_time()
        for _ in range(loops):
            scratch.inc("bench.counter", 2)
            scratch.observe("bench.histogram", 0.001)
        per_op_cost_s = (time.process_time() - op_started) / (2 * loops)

        # Informational A/B rates (noisy on shared runners; not gated).
        traces = builtin_attack_traces(duration=2.0)
        trace = traces["bbr-stall"]

        def one_run() -> float:
            config = SimulationConfig(duration=2.0)
            started = time.process_time()
            sim = run_simulation(
                cca_factory("bbr"), config, cross_traffic_times=trace.timestamps
            )
            return sim.events_executed / (time.process_time() - started)

        best_on = best_off = 0.0
        previous = set_enabled(True)
        try:
            for _ in range(REPEATS):
                set_enabled(True)
                best_on = max(best_on, one_run())
                set_enabled(False)
                best_off = max(best_off, one_run())
        finally:
            set_enabled(previous)

        return {
            "ops_per_eval": ops_per_eval,
            "per_op_cost_us": per_op_cost_s * 1e6,
            "cpu_s_per_eval": cpu_s_per_eval,
            "overhead_fraction": (ops_per_eval * per_op_cost_s) / cpu_s_per_eval,
            "events_per_sec_on": best_on,
            "events_per_sec_off": best_off,
        }

    row = run_once(benchmark, measure)
    sim_core_bench["telemetry_overhead"] = row
    print_rows("sim core: telemetry overhead (counted ops x per-op cost)", [row])
    # Per-simulation instrumentation means single-digit ops per evaluation;
    # triple digits would mean someone instrumented inside the event loop.
    assert 0 < row["ops_per_eval"] < 100
    assert row["overhead_fraction"] <= 0.02, (
        f"telemetry overhead {row['overhead_fraction']:.2%} exceeds the 2% budget"
    )
