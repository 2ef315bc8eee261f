#!/usr/bin/env python3
"""Link-mode fuzzing with realism screening.

Demonstrates the second fuzzing mode (adversarial bottleneck service curves)
plus the paper's realism scoring (section 5), which rejects traces that
would make *any* congestion control look bad.  (``repro-triage``'s
segment-merging stage is what makes an evolved link trace easier to read.)

Usage:
    python examples/link_fuzzing_with_realism.py [--generations N]
"""

from __future__ import annotations

import argparse

from repro import Bbr, CCFuzz, FuzzConfig, RealismScorer, SimulationConfig
from repro.analysis import ascii_chart, format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--generations", type=int, default=4)
    parser.add_argument("--population", type=int, default=6)
    parser.add_argument("--duration", type=float, default=4.0)
    args = parser.parse_args()

    config = FuzzConfig(
        mode="link",
        population_size=args.population,
        generations=args.generations,
        duration=args.duration,
        seed=2,
    )
    print(f"Link fuzzing BBR: {config.total_population} service curves/generation, "
          f"{config.generations} generations\n")

    fuzzer = CCFuzz(Bbr, config=config)
    result = fuzzer.run(
        progress=lambda stats: print(
            f"  generation {stats.generation}: best fitness {stats.best_fitness:.3f}"
        )
    )

    best = result.best_trace
    print()
    print(ascii_chart(
        best.windowed_rates_mbps(0.25),
        title="Best adversarial service curve (windowed link rate, Mbps)",
        y_label="Mbps",
    ))
    print(f"\ntotal transmission opportunities: {best.packet_count} "
          f"(average {best.average_rate_mbps:.2f} Mbps — the link-fuzzing invariant)")

    print("\nRealism screening of the top traces (section 5):")
    scorer = RealismScorer(config=SimulationConfig(duration=args.duration))
    rows = []
    for rank, individual in enumerate(result.top_individuals(3), start=1):
        report = scorer.score(individual.trace)
        rows.append({
            "rank": rank,
            "fitness": individual.fitness,
            "realism_score": report.score,
            "verdict": "valid" if report.is_realistic else "invalid",
        })
    print(format_table(rows))


if __name__ == "__main__":
    main()
