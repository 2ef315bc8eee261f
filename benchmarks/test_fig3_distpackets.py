"""Figure 3: service curves generated by DIST_PACKETS.

The paper shows cumulative packet-count curves for traces generated at an
average rate of 12 Mbps with k_agg = 50 ms, at two zoom levels: (a) the full
5-second interval, where the curves stay close to the average-rate diagonal
(long-term rate variation is bounded), and (b) a 50-millisecond interval,
where the curves are visibly bursty (short-term aggregation/jitter is
allowed).  This benchmark regenerates both views and checks that shape.
"""

from __future__ import annotations

import statistics

from conftest import print_rows, print_series, run_once

from repro.traces.constraints import max_rate_deviation
from repro.traces.generator import LinkTraceGenerator


def generate_population(count: int = 20, duration: float = 5.0):
    generator = LinkTraceGenerator(
        duration=duration, average_rate_mbps=12.0, k_agg=0.05, seed=42
    )
    return generator.generate_population(count)


def test_fig3_service_curve_distribution(benchmark):
    traces = run_once(benchmark, generate_population)

    # Fig 3a: over the full 5 s the cumulative curve tracks the diagonal.
    coarse_deviation = [max_rate_deviation(trace, window=1.25) for trace in traces]
    # Fig 3b: over 50 ms windows the rate is much burstier.
    fine_deviation = [max_rate_deviation(trace, window=0.05) for trace in traces]

    example = traces[0]
    print_series("Fig 3a: cumulative packets over 5 s (example trace)",
                 example.cumulative_counts()[:: max(1, len(example.timestamps) // 25)])
    fine_counts = example.windowed_counts(0.005)[:10]
    print_series("Fig 3b: packets per 5 ms over the first 50 ms (example trace)", fine_counts)
    print_rows(
        "Fig 3: rate-deviation summary (multiple of the 12 Mbps average)",
        [
            {
                "window": "1.25 s (coarse)",
                "median_max_deviation": statistics.median(coarse_deviation),
                "worst": max(coarse_deviation),
            },
            {
                "window": "50 ms (fine)",
                "median_max_deviation": statistics.median(fine_deviation),
                "worst": max(fine_deviation),
            },
        ],
    )

    # Every trace carries exactly the fixed packet budget (5000 packets = 12 Mbps x 5 s).
    assert all(trace.packet_count == 5000 for trace in traces)
    # Long-term variation is bounded by the recursive 0.5x-2x constraint...
    assert statistics.mean(coarse_deviation) < 3.0
    # ...while sub-k_agg windows are allowed to be much burstier.  Medians: a
    # trace with one empty 50 ms window deviates infinitely, which a mean
    # would let carry the comparison alone.
    assert statistics.median(fine_deviation) > 1.5 * statistics.median(coarse_deviation)
