#!/usr/bin/env python3
"""Compare how Reno, CUBIC and BBR cope with known adversarial patterns.

Exercises the public API on three scenarios the paper's introduction
motivates: a clean link, the low-rate (shrew) burst train, and the
BBR-targeted burst pattern.  Prints one metrics table per scenario so the
differences between the algorithms are easy to eyeball.

Usage:
    python examples/compare_ccas_under_attack.py [--duration SECONDS]
"""

from __future__ import annotations

import argparse

from repro import (
    Bbr,
    Cubic,
    Reno,
    SimulationConfig,
    bbr_stall_traffic_trace,
    compute_metrics,
    format_table,
    lowrate_attack_trace,
    run_simulation,
)

CCAS = {
    "reno": Reno,
    "cubic": Cubic,
    "bbr": Bbr,
    "bbr-fixed": lambda: Bbr(probe_rtt_on_rto=True),
}


def run_scenario(name: str, cross_times, duration: float) -> None:
    print("=" * 72)
    print(f"Scenario: {name}")
    print("=" * 72)
    config = SimulationConfig(duration=duration)
    rows = []
    for label, factory in CCAS.items():
        result = run_simulation(factory, config, cross_traffic_times=cross_times)
        metrics = compute_metrics(result)
        rows.append({
            "cca": label,
            "throughput_mbps": metrics.throughput_mbps,
            "utilization": metrics.utilization,
            "p95_delay_ms": metrics.p95_queueing_delay_ms,
            "loss_rate": metrics.loss_rate,
            "rtos": metrics.rto_count,
            "longest_stall_s": metrics.longest_stall_s,
        })
    print(format_table(rows))
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=6.0)
    args = parser.parse_args()

    run_scenario("clean 12 Mbps bottleneck", None, args.duration)
    shrew = lowrate_attack_trace(duration=args.duration)
    run_scenario(
        f"low-rate burst train ({shrew.average_rate_mbps:.1f} Mbps of cross traffic)",
        shrew.timestamps,
        args.duration,
    )
    stall = bbr_stall_traffic_trace(duration=args.duration)
    run_scenario(
        f"BBR-targeted burst pattern ({stall.average_rate_mbps:.1f} Mbps of cross traffic)",
        stall.timestamps,
        args.duration,
    )


if __name__ == "__main__":
    main()
