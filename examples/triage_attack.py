#!/usr/bin/env python3
"""Triage a builtin attack: minimize it, stress it, compare CCAs.

Runs the full triage pipeline on the hand-crafted CUBIC two-burst attack
(or any other builtin): the delta-debugging minimizer strips the trace down
to its load-bearing bursts, the robustness validator re-scores the minimal
pattern across perturbed networks, and the differential comparator shows
which CCAs the attack actually bites.

Usage:
    python examples/triage_attack.py [--attack NAME] [--duration SECONDS]
"""

from __future__ import annotations

import argparse

from repro import SimulationConfig, TriageConfig, builtin_attack_traces, triage_trace
from repro.analysis.reporting import format_triage_report
from repro.triage.minimize import MinimizeConfig

#: CCA each builtin attack was designed against.
TARGET_CCA = {
    "lowrate": "reno",
    "cubic-two-burst": "cubic",
    "bbr-stall": "bbr",
    "bbr-double-loss": "bbr",
    "bbr-delay": "bbr",
    "bbr-stall-link": "bbr",
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--attack", choices=sorted(TARGET_CCA), default="cubic-two-burst")
    parser.add_argument("--duration", type=float, default=4.0)
    parser.add_argument("--budget", type=int, default=80,
                        help="simulation budget for the minimizer")
    args = parser.parse_args()

    trace = builtin_attack_traces(args.duration)[args.attack]
    cca = TARGET_CCA[args.attack]
    print(
        f"Triaging builtin attack {args.attack!r} against {cca} "
        f"({trace.packet_count} events over {args.duration}s)\n"
    )

    report = triage_trace(
        trace,
        cca=cca,
        sim_config=SimulationConfig(duration=args.duration),
        config=TriageConfig(
            minimize=MinimizeConfig(retention=0.9, max_evaluations=args.budget)
        ),
    )
    print(format_triage_report(report.to_dict()))
    print(
        f"\n{report.simulations} simulations (+{report.cache_hits} cache hits) "
        f"in {report.wall_time_s:.1f}s"
    )

    minimized = report.minimization
    if minimized.reduced:
        print(
            f"\nThe minimizer removed {minimized.events_before - minimized.events_after} "
            f"of {minimized.events_before} events while keeping "
            f"{minimized.achieved_retention:.1%} of the attack score — the survivors "
            f"are the load-bearing structure worth writing up."
        )
    else:
        print("\nThe trace was already minimal under the retention bound.")


if __name__ == "__main__":
    main()
