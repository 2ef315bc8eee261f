"""Behavior-coverage-guided fuzzing: the map of regimes a search reached.

This example runs the same CUBIC search twice — once with the paper's
``score`` guidance and once with ``novelty`` guidance, both at the shipped
GA constants — and renders the MAP-Elites behavior map novelty filled:
which goodput / stall / loss / RTO regimes the discovered traces drove
CUBIC into.  It closes with both runs' cell counts.  At the defaults
(seed 16, 6 traces, 8 generations) score guidance fills 9 cells and
novelty 10.  That is one seed, not a ranking: over seeds 0-6 the counts
move with the seed, with wins for each guidance and ties.

Run with no arguments for a laptop-scale demo::

    python examples/coverage_map.py
    python examples/coverage_map.py --generations 10 --population 8
"""

from __future__ import annotations

import argparse

from repro import CCFuzz, FuzzConfig
from repro.analysis.reporting import format_coverage_map
from repro.attacks.cubic_burst import cubic_two_burst_trace
from repro.tcp.cca import cca_factory


def run_search(guidance: str, args: argparse.Namespace):
    config = FuzzConfig(
        mode="traffic",
        population_size=args.population,
        generations=args.generations,
        duration=args.duration,
        seed=args.seed,
        guidance=guidance,
    )
    # Seed the whole population from the known two-burst attack, so both
    # searches start from one behavior cell.
    seeds = [cubic_two_burst_trace(duration=args.duration)] * args.population
    fuzzer = CCFuzz(cca_factory("cubic"), config=config, seed_traces=seeds)
    return fuzzer.run()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--population", type=int, default=6)
    parser.add_argument("--generations", type=int, default=8)
    parser.add_argument("--duration", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=16)
    args = parser.parse_args()

    print("== score guidance (classic CC-Fuzz GA) ==")
    score_run = run_search("score", args)
    print(
        f"best fitness {score_run.best_fitness:.3f}, "
        f"{score_run.behavior_cells} behavior cells discovered"
    )

    print("\n== novelty guidance (behavior-coverage search) ==")
    novelty_run = run_search("novelty", args)
    print(
        f"best fitness {novelty_run.best_fitness:.3f}, "
        f"{novelty_run.behavior_cells} behavior cells discovered"
    )

    print("\n" + format_coverage_map(novelty_run.archive, top=5))
    print(
        f"\nnovelty filled {novelty_run.behavior_cells} cells vs "
        f"{score_run.behavior_cells} for score"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
