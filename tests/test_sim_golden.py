"""Golden regression tests: the optimized simulator is bit-identical to the seed.

``golden_sim_results.json`` was captured from the pre-fast-path simulator
(seed of this PR) by ``capture_sim_goldens.py``: every builtin attack run
against Reno/CUBIC/BBR with the paper-default configuration, digested down to
blake2b hashes over the raw float bit patterns of every derived series (see
``golden_utils.result_digest``), plus the GA smoke history.

Any drift — a reordered tie-break in the event core, a 1-ulp change in a
derived metric, a lost packet record — changes a digest and fails here.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from golden_utils import result_digest
from repro.attacks import builtin_attack_traces
from repro.core.fuzzer import CCFuzz, FuzzConfig
from repro.netsim.simulation import SimulationConfig, run_simulation
from repro.tcp.cca import cca_factory
from repro.tcp.cca.reno import Reno
from repro.traces.trace import LinkTrace

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_sim_results.json"
DURATION = 5.0
CCAS = ["reno", "cubic", "bbr"]


@pytest.fixture(scope="module")
def goldens():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def attack_traces():
    return builtin_attack_traces(duration=DURATION)


def golden_cases():
    attacks = [
        "lowrate",
        "cubic-two-burst",
        "bbr-stall",
        "bbr-double-loss",
        "bbr-delay",
        "bbr-stall-link",
    ]
    return [(attack, cca) for attack in attacks for cca in CCAS]


@pytest.mark.parametrize("attack,cca", golden_cases())
def test_builtin_attack_results_match_seed(goldens, attack_traces, attack, cca):
    trace = attack_traces[attack]
    config = SimulationConfig(duration=DURATION)
    if isinstance(trace, LinkTrace):
        result = run_simulation(cca_factory(cca), config, link_trace=trace.timestamps)
    else:
        result = run_simulation(
            cca_factory(cca), config, cross_traffic_times=trace.timestamps
        )
    digest = result_digest(result)
    golden = goldens["simulations"][f"{attack}::{cca}"]
    mismatched = [key for key in golden if digest.get(key) != golden[key]]
    assert not mismatched, f"{attack}::{cca} drifted in: {mismatched}"


def test_ga_smoke_history_matches_seed(goldens):
    """The smoke GA run reproduces the seed history bit-for-bit."""
    config = FuzzConfig(
        mode="traffic",
        population_size=6,
        generations=2,
        duration=1.0,
        max_traffic_packets=60,
        seed=21,
    )
    result = CCFuzz(Reno, config=config).run()
    golden = goldens["ga_smoke"]
    history = [
        [s.best_fitness, s.mean_fitness, s.evaluations, s.cache_hits]
        for s in result.generations
    ]
    assert history == golden["history"]
    assert result.best_fitness == golden["best_fitness"]
    assert result.total_evaluations == golden["total_evaluations"]
