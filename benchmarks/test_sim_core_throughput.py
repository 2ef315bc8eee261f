"""Cost of the metrics instrumentation on the fuzzing hot path.

The one harness left here asserts a budget, not a speed: telemetry must cost
at most 2% of an evaluation, computed from counted registry operations and a
tight-loop per-operation cost (see the test).  Throughput itself is measured
by the campaign benchmark (``benchmarks/campaign/``, whose ``netsim.*``
layer metrics cover the simulation core) and judged commit against commit by
``benchmarks/compare_commits.py``.  The smoke GA run below is the one
``tests/test_sim_golden.py`` pins bit for bit.

``-k smoke`` selects it (seconds-scale).
"""

from __future__ import annotations

import time

from conftest import print_rows, run_once

from repro.attacks import builtin_attack_traces
from repro.core import CCFuzz, FuzzConfig
from repro.netsim.simulation import SimulationConfig, run_simulation
from repro.tcp import Reno
from repro.tcp.cca import cca_factory

#: Timing repeats for the informational A/B rates; the best is reported.
REPEATS = 3


def _fuzz_smoke_config() -> FuzzConfig:
    """The serial GA run ``tests/test_sim_golden.py`` pins (``ga_smoke``)."""
    return FuzzConfig(
        mode="traffic",
        population_size=6,
        generations=2,
        duration=1.0,
        max_traffic_packets=60,
        seed=21,
    )


def test_smoke_telemetry_overhead(benchmark):
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
    ``ops_per_eval`` by ~10^4 and blows the 2% gate immediately.  The
    assertions below are the gate, in every tier-1 run.  A/B events/sec
    rates are still reported for eyeballing, but not gated.
    """
    import repro.obs.metrics as metrics_mod
    from repro.obs.metrics import MetricsRegistry, set_enabled

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
    print_rows("sim core: telemetry overhead (counted ops x per-op cost)", [row])
    # Per-simulation instrumentation means single-digit ops per evaluation;
    # triple digits would mean someone instrumented inside the event loop.
    assert 0 < row["ops_per_eval"] < 100
    assert row["overhead_fraction"] <= 0.02, (
        f"telemetry overhead {row['overhead_fraction']:.2%} exceeds the 2% budget"
    )
