"""The four campaign shapes the benchmark runs, and why each is there.

Every workload is a closed loop with one client: a campaign round starts
only after the previous one returned.  ``--seed`` is the campaign seed of the
first round; round ``i`` of a run uses ``seed + i``.  Across campaign seeds
the GA explores different traces, so per-candidate cost moves by 8-14%
(events per candidate, interquartile, measured over 12 seeds) — one seed per
run would put that content variation straight into the run-to-run spread,
while a run of ten consecutive seeds averages it down to ~3%.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Any, Dict, List

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
SRC_DIR = os.path.join(REPO_ROOT, "src")


def require_source_tree() -> None:
    """Make ``repro`` importable, or exit non-zero when the tree is absent."""
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        sys.stderr.write(f"campaign benchmark: no source tree at {SRC_DIR}\n")
        raise SystemExit(2)
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)


_BASE = {"name": "base"}
_SHALLOW = {"name": "shallow", "queue_capacity": 20}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Campaign rounds (distinct consecutive seeds) at the nominal run length.
    rounds: int
    #: Corpora kept for the read side; each gets ``read_repeats`` passes.
    read_corpora: int
    read_repeats: int
    spec_template: Dict[str, Any]

    def spec_dict(self, campaign_seed: int) -> Dict[str, Any]:
        payload = dict(self.spec_template)
        payload["name"] = self.name
        payload["seed"] = campaign_seed
        return payload

    def spec(self, campaign_seed: int):
        from repro.campaign import CampaignSpec

        return CampaignSpec.from_dict(self.spec_dict(campaign_seed))


def _workloads() -> List[Workload]:
    return [
        Workload(
            name="sim_bound",
            why="1.0 s sims, tiny population: over 80% of a round is inside evaluate_batch, "
                "so only netsim/tcp work moves evals_per_s here",
            rounds=12,
            read_corpora=12,
            read_repeats=1,
            spec_template={
                "ccas": ["reno", "bbr"],
                "modes": ["traffic"],
                "objectives": ["throughput"],
                "conditions": [_BASE],
                "budget": {"population_size": 6, "generations": 3, "duration": 1.0},
            },
        ),
        Workload(
            name="durability_bound",
            why="0.12 s sims, 12 checkpointed generations: over half the round is outside "
                "evaluate_batch and the journal is ~15 KB per candidate, so lean durability shows here",
            rounds=10,
            read_corpora=3,
            read_repeats=1,
            spec_template={
                "ccas": ["reno", "cubic"],
                "modes": ["traffic"],
                "objectives": ["throughput"],
                "conditions": [_BASE],
                "budget": {"population_size": 16, "generations": 12, "duration": 0.12},
            },
        ),
        Workload(
            name="pool_dispatch",
            why="~3 ms sims through the process backend with one pinned worker: pickling, pipes, "
                "supervisor and pool start are on the critical path; the serial workloads bypass them",
            rounds=14,
            read_corpora=6,
            read_repeats=1,
            spec_template={
                "ccas": ["reno", "cubic"],
                "modes": ["traffic"],
                "objectives": ["throughput"],
                "conditions": [_BASE],
                "budget": {"population_size": 32, "generations": 3, "duration": 0.2},
                "backend": "process",
                "workers": 1,
            },
        ),
        Workload(
            name="wide_matrix",
            why="18 scenarios (3 CCAs x 3 trace modes x 2 queues), novelty guidance: cross-scenario seeding, "
                "cache hits, corpus and archive writes, many leases, and the read side's largest input",
            rounds=10,
            read_corpora=3,
            read_repeats=1,
            spec_template={
                "ccas": ["reno", "cubic", "bbr"],
                "modes": ["traffic", "link", "loss"],
                "objectives": ["throughput"],
                "conditions": [_BASE, _SHALLOW],
                "budget": {"population_size": 4, "generations": 2, "duration": 0.3},
                "guidance": "novelty",
            },
        ),
    ]


WORKLOADS: Dict[str, Workload] = {workload.name: workload for workload in _workloads()}


def expected_candidates(spec) -> int:
    """Candidates one campaign scores: fixed by the spec, not by caching.

    Without a patience or target-fitness rule every scenario runs all its
    generations, and each generation submits its whole population (elite
    clones and duplicates are served by the cache but still count).
    """
    budget = spec.budget
    return spec.scenario_count * budget.population_size * budget.islands * budget.generations


def expected_checkpoints(spec) -> int:
    return spec.scenario_count * spec.budget.generations
