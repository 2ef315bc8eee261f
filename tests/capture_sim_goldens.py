"""Regenerate ``golden_sim_results.json`` from the current simulator.

Run this ONLY when an intentional, reviewed behaviour change makes the
committed goldens stale; the whole point of the file is to catch accidental
drift (``test_sim_golden.py``).  The committed goldens were captured from the
pre-fast-path seed simulator, so a passing ``test_sim_golden.py`` certifies
that every optimization since is bit-identical.

Usage::

    PYTHONPATH=src:tests python tests/capture_sim_goldens.py
"""

from __future__ import annotations

import json
from pathlib import Path

from golden_utils import result_digest
from repro.attacks import builtin_attack_traces
from repro.core.fuzzer import CCFuzz, FuzzConfig
from repro.netsim.simulation import SimulationConfig, run_simulation
from repro.tcp.cca import cca_factory
from repro.tcp.cca.reno import Reno
from repro.traces.trace import LinkTrace

DURATION = 5.0
CCAS = ["reno", "cubic", "bbr"]
OUTPUT = Path(__file__).resolve().parent / "golden_sim_results.json"


def main() -> None:
    goldens = {}
    for attack_name, trace in builtin_attack_traces(duration=DURATION).items():
        for cca in CCAS:
            config = SimulationConfig(duration=DURATION)
            if isinstance(trace, LinkTrace):
                result = run_simulation(
                    cca_factory(cca), config, link_trace=trace.timestamps
                )
            else:
                result = run_simulation(
                    cca_factory(cca), config, cross_traffic_times=trace.timestamps
                )
            goldens[f"{attack_name}::{cca}"] = result_digest(result)
            print(f"captured {attack_name}::{cca}")

    config = FuzzConfig(
        mode="traffic",
        population_size=6,
        generations=2,
        duration=1.0,
        max_traffic_packets=60,
        seed=21,
    )
    result = CCFuzz(Reno, config=config).run()
    ga = {
        "best_fitness": result.best_fitness,
        "history": [
            [s.best_fitness, s.mean_fitness, s.evaluations, s.cache_hits]
            for s in result.generations
        ],
        "total_evaluations": result.total_evaluations,
    }

    payload = {"simulations": goldens, "ga_smoke": ga}
    with open(OUTPUT, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    print(f"wrote {len(goldens)} golden digests to {OUTPUT}")


if __name__ == "__main__":
    main()
