"""Ablation benchmark for the scoring aggregation (section 3.4).

The low-utilisation score averages the *worst 20 %* of throughput windows
instead of the whole run.  The paper argues this avoids favouring traces
that only hurt the flow early.  The ablation compares the two aggregations
on an early-burst trace versus a late-burst trace; the whole-run score is
the negated whole-run throughput.
"""

from __future__ import annotations

from conftest import print_rows, run_once

from repro.netsim import SimulationConfig, run_simulation
from repro.scoring import LowUtilizationScore
from repro.tcp import Reno
from repro.traces import TrafficTrace

DURATION = 4.0


def run_scoring_ablation():
    config = SimulationConfig(duration=DURATION)
    early_burst = TrafficTrace(
        timestamps=[0.5 + i * 0.001 for i in range(400)], duration=DURATION, max_packets=400
    )
    late_burst = TrafficTrace(
        timestamps=[3.0 + i * 0.001 for i in range(400)], duration=DURATION, max_packets=400
    )
    early_result = run_simulation(Reno, config, cross_traffic_times=early_burst.timestamps)
    late_result = run_simulation(Reno, config, cross_traffic_times=late_burst.timestamps)
    return early_result, late_result


def test_ablation_bottom_windows_vs_whole_run(benchmark):
    early_result, late_result = run_once(benchmark, run_scoring_ablation)

    bottom = LowUtilizationScore(window=0.25, bottom_fraction=0.2)
    rows = [
        {
            "trace": "burst at t=0.5s",
            "bottom20_score": bottom(early_result),
            "whole_run_score": -early_result.throughput_mbps(),
        },
        {
            "trace": "burst at t=3.0s",
            "bottom20_score": bottom(late_result),
            "whole_run_score": -late_result.throughput_mbps(),
        },
    ]
    print_rows("Ablation: worst-20%-windows score vs whole-run throughput score", rows)

    # The worst-windows aggregation focuses on the damage a trace does where
    # it hits, so for any run it scores at least as adversarial as the
    # whole-run average (mathematically: mean of the worst windows <= overall
    # mean, hence its negation is >=), and both traces register real damage.
    for result in (early_result, late_result):
        assert bottom(result) >= -result.throughput_mbps() - 1e-9
    assert bottom(early_result) > -6.0
