"""Figure 4d: fuzzing default BBR vs BBR with the ProbeRTT-on-RTO mitigation.

The paper plots, per GA generation, the mean "packets sent" of the 20 worst
traces when fuzzing default BBR and when fuzzing BBR with the proposed fix
(enter ProbeRTT on RTO).  Against default BBR the search drives packets sent
far down (the stall is reachable); against the fixed BBR the worst traces
cost some throughput but the permanent stall is avoided.

Full-scale GA runs (population 500, 20 islands, 50 generations) are far
beyond a laptop benchmark, so this harness runs a scaled-down search with the
same structure — seeded with the known adversarial burst pattern so even the
small budget explores the relevant region — and reports the same series.
"""

from __future__ import annotations

from conftest import print_rows, run_once

from repro.attacks.bbr_stall import bbr_stall_traffic_trace
from repro.core.fuzzer import CCFuzz, FuzzConfig
from repro.scoring.base import ScoreFunction
from repro.scoring.performance import LowUtilizationScore
from repro.scoring.trace_score import MinimalTrafficScore
from repro.tcp.cca.bbr import Bbr

DURATION = 5.0
GENERATIONS = 4
POPULATION = 6


def fuzz_variant(probe_rtt_on_rto: bool):
    config = FuzzConfig(
        mode="traffic",
        population_size=POPULATION,
        generations=GENERATIONS,
        duration=DURATION,
        max_traffic_packets=2500,
        seed=1,
        top_k=POPULATION,
    )
    fuzzer = CCFuzz(
        (lambda: Bbr(probe_rtt_on_rto=True)) if probe_rtt_on_rto else Bbr,
        config=config,
        score_function=ScoreFunction(
            performance=LowUtilizationScore(), trace=MinimalTrafficScore(), trace_weight=1e-3
        ),
        seed_traces=[bbr_stall_traffic_trace(duration=DURATION)],
    )
    return fuzzer.run()


def packets_sent_series(result):
    """Per-generation mean 'segments delivered' of the worst traces (Fig 4d y-axis)."""
    series = []
    for stats in result.generations:
        # The fitness is the negated bottom-20% windowed throughput in Mbps;
        # report the best individual's delivered segments for interpretability.
        delivered = stats.best_summary.get("cca_segments_delivered", None)
        series.append((stats.generation, delivered, stats.top_k_mean_fitness))
    return series


def run_experiment():
    default_result = fuzz_variant(probe_rtt_on_rto=False)
    fixed_result = fuzz_variant(probe_rtt_on_rto=True)
    return default_result, fixed_result


def test_fig4d_default_vs_probertt_on_rto(benchmark):
    default_result, fixed_result = run_once(benchmark, run_experiment)

    rows = []
    for generation in range(len(default_result.generations)):
        default_stats = default_result.generations[generation]
        fixed_stats = fixed_result.generations[generation]
        rows.append(
            {
                "generation": generation,
                "default_bbr_worst_trace_delivered": default_stats.best_summary.get(
                    "cca_segments_delivered"
                ),
                "fixed_bbr_worst_trace_delivered": fixed_stats.best_summary.get(
                    "cca_segments_delivered"
                ),
                "default_topk_fitness": default_stats.top_k_mean_fitness,
                "fixed_topk_fitness": fixed_stats.top_k_mean_fitness,
            }
        )
    print_rows(
        "Fig 4d: worst-trace packets delivered per generation (default vs ProbeRTT-on-RTO)",
        rows,
    )

    default_worst = default_result.best_individual.result_summary["cca_segments_delivered"]
    fixed_worst = fixed_result.best_individual.result_summary["cca_segments_delivered"]
    possible = DURATION * 1000  # 12 Mbps == 1000 packets/s

    print_rows(
        "Fig 4d summary (paper: fix keeps packets-sent high, default collapses)",
        [
            {
                "variant": "bbr default",
                "worst_trace_delivered": default_worst,
                "fraction_of_link": default_worst / possible,
            },
            {
                "variant": "bbr probertt-on-rto",
                "worst_trace_delivered": fixed_worst,
                "fraction_of_link": fixed_worst / possible,
            },
        ],
    )

    # Shape: the search hurts default BBR at least as much as the fixed one,
    # and the worst trace against default BBR removes most of the link.
    assert default_worst <= fixed_worst * 1.1
    assert default_worst < 0.6 * possible
    # The genetic search makes progress (fitness never regresses with elitism).
    assert default_result.best_fitness >= default_result.generations[0].best_fitness
