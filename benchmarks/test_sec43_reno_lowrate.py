"""Section 4.3: traffic fuzzing rediscovers the low-rate (shrew) TCP attack on Reno.

The paper reports that CC-Fuzz's traffic mode produces an injection pattern
against TCP-Reno matching Kuzmanovic & Knightly's low-rate attack: short
bursts spaced at the minimum RTO, so that every recovery attempt loses the
same packets again and the connection stays in RTO backoff.

This benchmark (1) replays the hand-built shrew baseline, on which the
``reno-low-rate`` finding (:mod:`repro.analysis.findings`) holds, and (2) runs
a small GA in traffic mode against Reno and checks that the evolved traces
keep the damage and the periodic-burst character.
"""

from __future__ import annotations

from conftest import print_rows, print_series, run_once

from repro.analysis import findings_of
from repro.attacks import lowrate_attack_trace
from repro.core import CCFuzz, FuzzConfig
from repro.netsim import CROSS_FLOW, SimulationConfig, run_simulation
from repro.scoring import LowUtilizationScore, MinimalTrafficScore, ScoreFunction
from repro.tcp import Reno
from repro.traces import longest_silence

DURATION = 6.0


def run_experiment():
    config = SimulationConfig(duration=DURATION)
    clean = run_simulation(Reno, config)
    baseline_trace = lowrate_attack_trace(duration=DURATION)
    baseline = run_simulation(Reno, config, cross_traffic_times=baseline_trace.timestamps)

    fuzz_config = FuzzConfig(
        mode="traffic",
        population_size=6,
        generations=4,
        duration=DURATION,
        max_traffic_packets=2000,
        seed=5,
    )
    fuzzer = CCFuzz(
        Reno,
        config=fuzz_config,
        score_function=ScoreFunction(
            performance=LowUtilizationScore(), trace=MinimalTrafficScore(), trace_weight=1e-3
        ),
        seed_traces=[baseline_trace],
    )
    fuzz_result = fuzzer.run()
    evolved = fuzzer.simulate_trace(fuzz_result.best_trace)
    return clean, baseline_trace, baseline, fuzz_result, evolved


def test_sec43_reno_lowrate_attack(benchmark):
    clean, baseline_trace, baseline, fuzz_result, evolved = run_once(benchmark, run_experiment)

    print_series(
        "Sec 4.3: Reno windowed throughput (Mbps) under the low-rate baseline",
        baseline.windowed_throughput(window=0.5),
    )
    evolved_trace = fuzz_result.best_trace
    rows = [
        {
            "scenario": "reno, no cross traffic",
            "reno_throughput_mbps": clean.throughput_mbps(),
            "attack_rate_mbps": 0.0,
            "reno_rtos": clean.sender_stats.rto_count,
        },
        {
            "scenario": "hand-built shrew baseline",
            "reno_throughput_mbps": baseline.throughput_mbps(),
            "attack_rate_mbps": baseline_trace.average_rate_mbps,
            "reno_rtos": baseline.sender_stats.rto_count,
        },
        {
            "scenario": "CC-Fuzz evolved trace",
            "reno_throughput_mbps": evolved.throughput_mbps(),
            "attack_rate_mbps": evolved_trace.average_rate_mbps,
            "reno_rtos": evolved.sender_stats.rto_count,
        },
    ]
    print_rows("Sec 4.3 summary (paper: periodic bursts keep Reno in RTO backoff)", rows)

    assert findings_of(baseline, baseline_trace) == ["reno-low-rate"]
    assert findings_of(clean) == []
    # The evolved trace is about as damaging as the baseline per the GA's
    # objective, and it keeps the periodic-burst character (long silent gaps
    # between bursts).
    assert evolved.throughput_mbps() <= baseline.throughput_mbps() * 1.3
    assert longest_silence(evolved_trace) > 0.3
