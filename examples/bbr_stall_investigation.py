#!/usr/bin/env python3
"""Reproduce and dissect the BBR stall finding (paper section 4.1).

This example walks through the finding end to end:

1. run BBR on a clean 12 Mbps link (baseline),
2. run BBR against the adversarial cross-traffic pattern that traffic fuzzing
   converges to, and show the throughput collapse,
3. reproduce the *mechanism* deterministically with targeted fault injection
   (lose one segment and its retransmission), and narrate the Fig. 4c chain —
   RTO, spurious retransmissions, premature probe-round endings,
4. show that the paper's proposed mitigation (enter ProbeRTT on RTO) reduces
   the damage.

Usage:
    python examples/bbr_stall_investigation.py [--duration SECONDS]
"""

from __future__ import annotations

import argparse

from repro import (
    Bbr,
    SimulationConfig,
    bbr_bug_evidence,
    bbr_stall_traffic_trace,
    format_table,
    run_simulation,
)
from repro.analysis.reporting import ascii_chart
from repro.analysis.timeline import describe_bug_timeline
from repro.attacks.fault_injection import lose_segment_and_retransmission


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=6.0)
    args = parser.parse_args()
    duration = args.duration
    config = SimulationConfig(duration=duration)

    print("=" * 72)
    print("Step 1: BBR on a clean 12 Mbps / 20 ms bottleneck")
    print("=" * 72)
    clean = run_simulation(Bbr, config)
    print(f"throughput: {clean.throughput_mbps():.2f} Mbps "
          f"({100 * clean.utilization():.0f}% of the link)\n")

    print("=" * 72)
    print("Step 2: BBR against the adversarial cross-traffic pattern (Fig. 4a)")
    print("=" * 72)
    trace = bbr_stall_traffic_trace(duration=duration)
    attacked = run_simulation(Bbr, config, cross_traffic_times=trace.timestamps)
    print(f"cross traffic: {trace.packet_count} packets, "
          f"{trace.average_rate_mbps:.2f} Mbps average")
    print(f"BBR throughput: {attacked.throughput_mbps():.2f} Mbps "
          f"(clean: {clean.throughput_mbps():.2f})")
    print()
    print(ascii_chart(attacked.windowed_throughput(0.5),
                      title="BBR throughput under the adversarial trace (Mbps)",
                      y_label="Mbps"))
    print()
    print(describe_bug_timeline(bbr_bug_evidence(attacked)))
    print()

    print("=" * 72)
    print("Step 3: the mechanism in isolation (Fig. 4c) — lose one segment twice")
    print("=" * 72)
    surgical = run_simulation(
        Bbr, config, drop_filter=lose_segment_and_retransmission(2000)
    )
    print(describe_bug_timeline(bbr_bug_evidence(surgical)))
    print()

    print("=" * 72)
    print("Step 4: the paper's mitigation — enter ProbeRTT on RTO (Fig. 4d)")
    print("=" * 72)
    fixed = run_simulation(
        lambda: Bbr(probe_rtt_on_rto=True), config, cross_traffic_times=trace.timestamps
    )
    print(format_table([
        {
            "variant": "bbr default",
            "throughput_mbps": attacked.throughput_mbps(),
            "segments_delivered": attacked.delivered_segments(),
            "spurious_retransmissions": attacked.spurious_retransmissions,
        },
        {
            "variant": "bbr + probertt-on-rto",
            "throughput_mbps": fixed.throughput_mbps(),
            "segments_delivered": fixed.delivered_segments(),
            "spurious_retransmissions": fixed.spurious_retransmissions,
        },
    ]))


if __name__ == "__main__":
    main()
