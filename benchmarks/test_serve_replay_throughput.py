"""Throughput of the dashboard's memoized replay endpoint (cold vs cached).

The serving story behind the dashboard is that replaying a stored attack is
a one-time cost: the first ``/api/replay`` for an (entry, CCA) pair runs
real simulations, every later one is a cache lookup plus JSON assembly.
This harness measures both sides over real HTTP against a live server and
prints them.  What it asserts is counted, not timed (a loaded CI host can
make any two wall-clock readings cross): the cached sweep runs zero
simulations, every one of its requests is a cache hit, and cached responses
are byte-identical to the cold ones (the determinism contract).  The timings
are printed rows only.

``-k smoke`` selects the single seconds-scale variant (also run by the CI
``dashboard-smoke`` job).
"""

from __future__ import annotations

import json
import time
import urllib.request

import pytest

from conftest import print_rows, run_once

from repro.campaign import CampaignRunner, CampaignSpec, CorpusStore
from repro.serve.server import DashboardServer

REPLAY_CCAS = ["reno", "cubic", "bbr"]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve-bench-corpus")
    spec = CampaignSpec.from_dict(
        {
            "name": "serve-bench",
            "ccas": ["cubic"],
            "modes": ["traffic"],
            "objectives": ["throughput"],
            "conditions": [{"name": "base"}],
            "budget": {"population_size": 4, "generations": 2, "duration": 1.5},
            "seed": 0,
            "seed_limit": 2,
        }
    )
    CampaignRunner(spec, CorpusStore(str(path)), register_attacks=True).run()
    return str(path)


def fetch(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=120) as resp:
        return json.load(resp)


def replay_sweep(server: DashboardServer, fingerprints) -> tuple:
    """Replay every (entry, cca) pair once; returns (payloads, seconds)."""
    started = time.perf_counter()
    payloads = {}
    for fingerprint in fingerprints:
        for cca in REPLAY_CCAS:
            payloads[(fingerprint, cca)] = fetch(
                f"{server.url}/api/replay/{fingerprint}?cca={cca}"
            )
    return payloads, time.perf_counter() - started


def test_smoke_replay_endpoint_throughput(benchmark, corpus_dir):
    """Cold replays simulate, cached replays don't."""
    with DashboardServer(corpus_dir) as server:
        index = fetch(f"{server.url}/api/corpus")
        fingerprints = [row["fingerprint"] for row in index["rows"]]
        assert fingerprints

        cold, cold_elapsed = replay_sweep(server, fingerprints)
        cold_simulations = server.replay.evaluator.simulations
        cold_hits = fetch(f"{server.url}/api/replay-stats")["cache"]["hits"]

        def cached_sweep():
            return replay_sweep(server, fingerprints)

        cached, cached_elapsed = run_once(benchmark, cached_sweep)
        stats = fetch(f"{server.url}/api/replay-stats")
        cached_simulations = server.replay.evaluator.simulations - cold_simulations

    requests = len(cold)
    assert all(not payload["cached"] for payload in cold.values())
    assert all(payload["cached"] for payload in cached.values())
    # Byte-identity of the response payload minus the cache marker.
    for key, payload in cached.items():
        expected = dict(cold[key], cached=True)
        assert payload == expected
    # What "cached serving is cheaper" stands on, as counts: the cold sweep
    # simulated every pair once, the cached sweep simulated nothing and hit
    # the cache once per request.
    assert cold_simulations == requests
    assert cached_simulations == 0
    assert stats["cache"]["hits"] - cold_hits >= requests

    rows = [
        {
            "path": "cold",
            "requests": requests,
            "wall_clock_s": cold_elapsed,
            "replays_per_sec": requests / cold_elapsed,
        },
        {
            "path": "cached",
            "requests": requests,
            "wall_clock_s": cached_elapsed,
            "replays_per_sec": requests / cached_elapsed,
        },
    ]
    print_rows("replay endpoint throughput (cold vs cached)", rows)
