#!/usr/bin/env python3
"""Quickstart: fuzz TCP-Reno with a tiny genetic search.

Runs CC-Fuzz in traffic mode against Reno with a laptop-scale budget
(a few dozen simulations, well under a minute) and prints how the search
progresses, what the best adversarial cross-traffic trace looks like and how
much damage it does compared to a clean run.

Usage:
    python examples/quickstart.py [--generations N] [--population N]
"""

from __future__ import annotations

import argparse

from repro import CCFuzz, FuzzConfig, Reno, SimulationConfig, run_simulation
from repro.analysis import ascii_chart, format_table
from repro.netsim.simulation import simulate_packet_trace


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--generations", type=int, default=5)
    parser.add_argument("--population", type=int, default=8)
    parser.add_argument("--duration", type=float, default=4.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    config = FuzzConfig(
        mode="traffic",
        population_size=args.population,
        generations=args.generations,
        duration=args.duration,
        seed=args.seed,
    )
    print(f"Fuzzing TCP-Reno: {config.total_population} traces/generation, "
          f"{config.generations} generations, {config.duration}s per simulation\n")

    fuzzer = CCFuzz(Reno, config=config)
    result = fuzzer.run(
        progress=lambda stats: print(
            f"  generation {stats.generation}: best fitness {stats.best_fitness:.3f} "
            f"(mean {stats.mean_fitness:.3f})"
        )
    )

    best_trace = result.best_trace
    clean = run_simulation(Reno, SimulationConfig(duration=args.duration))
    adversarial = simulate_packet_trace(Reno, fuzzer.config.sim, best_trace)

    print("\nBest adversarial trace vs clean run:")
    print(format_table([
        {
            "scenario": "clean link",
            "throughput_mbps": clean.throughput_mbps(),
            "rtos": clean.sender_stats.rto_count,
            "cross_packets": 0,
        },
        {
            "scenario": "evolved cross traffic",
            "throughput_mbps": adversarial.throughput_mbps(),
            "rtos": adversarial.sender_stats.rto_count,
            "cross_packets": best_trace.packet_count,
        },
    ]))

    print()
    print(ascii_chart(
        best_trace.windowed_rates_mbps(0.25),
        title="Evolved cross-traffic injection rate over time (Mbps)",
        y_label="Mbps",
    ))
    print()
    print(ascii_chart(
        adversarial.windowed_throughput(0.25),
        title="Reno throughput under the evolved trace (Mbps)",
        y_label="Mbps",
    ))


if __name__ == "__main__":
    main()
