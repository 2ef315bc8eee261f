"""Tier-1 smoke test of the campaign benchmark (well under 15 s).

No timing is asserted anywhere: the host is too noisy for that, and the
benchmark's own ``--selfcheck`` is where agreement between runs is judged.
"""

from __future__ import annotations

import gc
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from bench_estimator import ReferenceKernel  # noqa: E402
from bench_workloads import REPO_ROOT, WORKLOADS, Workload, require_source_tree  # noqa: E402

require_source_tree()


def test_smoke_emits_every_contract_metric(tmp_path):
    out = tmp_path / "smoke.json"
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        contract = json.load(handle)
    with open(out, "r", encoding="utf-8") as handle:
        run = json.load(handle)["workloads"]["pool_dispatch"]["runs"][0]

    printed = dict(
        (line.split()[0], line.split()[2:]) for line in completed.stdout.splitlines() if "/" in line
    )
    for kind in ("end_to_end", "per_layer"):
        assert set(run[kind]) == {metric["name"] for metric in contract[kind]}
        for metric in contract[kind]:
            assert math.isfinite(run[kind][metric["name"]]), metric["name"]
            assert printed[f"pool_dispatch/{metric['name']}"][:1] == [metric["unit"]]
    assert all(value > 0 for value in run["end_to_end"].values())
    assert run["correct"] and run["failed"] == 0 and run["attempted"] > 0
    assert printed["pool_dispatch/failed_ops_share"][0] == "ratio"


def test_kernel_is_allocation_free():
    kernel = ReferenceKernel()
    kernel()
    before = gc.get_count()
    wall, cpu = kernel()
    assert gc.get_count() == before
    assert wall > 0 and cpu > 0


def test_injected_seams_leave_the_digest_alone(tmp_path):
    """Slicing and recording subclasses must not change what a campaign finds."""
    from bench_measure import run_round
    from bench_trace import Tracer, traced_fsync, traced_seams
    from repro.campaign import CampaignRunner, CorpusStore

    template = dict(WORKLOADS["pool_dispatch"].spec_template, backend="serial", workers=None)
    template["budget"] = dict(template["budget"], population_size=8, generations=2)
    workload = Workload("smoke", "digest equality", 1, 1, 1, template)
    kernel = ReferenceKernel()

    plain = CampaignRunner(workload.spec(7), CorpusStore(str(tmp_path / "plain"))).run()
    sliced = run_round(workload, 7, str(tmp_path / "sliced"), kernel)
    tracer = Tracer()
    captured = []
    with traced_fsync(tracer):
        recorded = run_round(
            workload, 7, str(tmp_path / "recorded"), kernel, traced_seams(tracer, captured)
        )
    assert sliced.digest == recorded.digest == plain.deterministic_digest()
    assert sliced.pins() == recorded.pins()
    assert len(captured) == recorded.simulated
    assert {span[0] for span in tracer.spans} >= {
        "exec.evaluate_batch", "exec.cache.get", "journal.append", "os.fsync",
        "coverage.archive.observe", "campaign.corpus.add", "obs.generation",
    }
