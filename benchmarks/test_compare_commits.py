"""The pair runner, driven over two stub trees.

Each stub tree's ``benchmarks/campaign/run.py`` logs its side and argv to a
shared file and writes a canned run-set document; the head's ``compare``
prints a canned table and exits with a canned code.  The runner under test is a copy of
``compare_commits.py`` placed in the stub head, which is how it finds the
head tree.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

RUNNER = Path(__file__).resolve().parent / "compare_commits.py"
WORKLOADS = ("sim_bound", "wide_matrix")
COMPARE_EXIT = 3
#: Rows as run.py compare prints them, columns narrowed.
HEADER = "workload  metric  before  after  worse by  spread  bound  verdict"
WITHIN = "sim_bound  evals_per_s  79.4  79.1  0.4%  3.0%  20%  within bound"
UNRESOLVED = "wide_matrix  query_heavy_ms  41.2  42.0  1.9%  26.6%  25%  unresolved"
UNRESOLVED_GATED = "wide_matrix  evals_per_s  367.7  360.2  2.0%  21.0%  20%  unresolved"

STUB = """\
import json, os, sys
root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
side = os.path.basename(root)
argv = sys.argv[1:]
with open({log!r}, "a") as handle:
    handle.write(json.dumps({{"side": side, "argv": argv}}) + "\\n")
if argv[0] == "compare":
    print({table!r})
    sys.exit({compare_exit})
seed = int(argv[argv.index("--seed") + 1])
run = {{"correct": True, "side": side, "seed": seed, "end_to_end": {{"evals_per_s": 1.0}}}}
document = {{"seed": seed, "seconds": 20.0,
            "workloads": {{name: {{"runs": [run]}} for name in {workloads!r}}}}}
with open(argv[argv.index("--out") + 1], "w") as handle:
    json.dump(document, handle)
sys.exit(1 if seed == {failing_seed} else 0)
"""


def build_trees(root: Path, failing_seed: int = -1, rows=(WITHIN, UNRESOLVED),
                compare_exit: int = COMPARE_EXIT):
    log = root / "log.jsonl"
    for side in ("base", "head"):
        campaign = root / side / "benchmarks" / "campaign"
        campaign.mkdir(parents=True)
        (campaign / "run.py").write_text(STUB.format(
            log=str(log), compare_exit=compare_exit, workloads=WORKLOADS,
            failing_seed=failing_seed, table="\n".join((HEADER, *rows)),
        ))
    shutil.copy(RUNNER, root / "head" / "benchmarks" / "compare_commits.py")
    return log


def run_runner(root: Path, *args: str):
    command = [sys.executable, str(root / "head" / "benchmarks" / "compare_commits.py"),
               str(root / "base"), "--out", str(root / "out"), *args]
    return subprocess.run(command, capture_output=True, text=True)


def read_log(log: Path):
    return [json.loads(line) for line in log.read_text().splitlines()]


@pytest.fixture(scope="module")
def three_pairs(tmp_path_factory):
    root = tmp_path_factory.mktemp("compare-commits")
    log = build_trees(root)
    completed = run_runner(root, "--pairs", "3")
    return root, read_log(log), completed


def test_sides_alternate_and_share_each_pairs_seed(three_pairs):
    _, entries, _ = three_pairs
    runs = [entry for entry in entries if entry["argv"][0] != "compare"]
    assert [entry["side"] for entry in runs] == ["base", "head", "head", "base", "base", "head"]
    seeds = [entry["argv"][entry["argv"].index("--seed") + 1] for entry in runs]
    assert seeds == ["7", "7", "8", "8", "9", "9"]
    for entry in runs:
        assert entry["argv"][:2] == ["--trace", "0"]
        assert "--seconds" not in entry["argv"]


def test_each_side_is_merged_into_one_run_set(three_pairs):
    root, _, _ = three_pairs
    for side in ("base", "head"):
        document = json.loads((root / "out" / f"{side}.json").read_text())
        assert document["seed"] == 7
        assert sorted(document["workloads"]) == sorted(WORKLOADS)
        for entry in document["workloads"].values():
            assert [run["seed"] for run in entry["runs"]] == [7, 8, 9]
            assert {run["side"] for run in entry["runs"]} == {side}


def test_head_compares_base_against_head_and_its_exit_code_is_returned(three_pairs):
    root, entries, completed = three_pairs
    assert entries[-1] == {
        "side": "head",
        "argv": ["compare", str(root / "out" / "base.json"), str(root / "out" / "head.json")],
    }
    assert sum(entry["argv"][0] == "compare" for entry in entries) == 1
    assert completed.returncode == COMPARE_EXIT
    table = "\n".join((HEADER, WITHIN, UNRESOLVED, "compare_commits: 1 of 2 rows unresolved", ""))
    assert completed.stdout.endswith(table)
    assert (root / "out" / "compare.txt").read_text() == table


@pytest.mark.parametrize("rows, code", [
    ((WITHIN, UNRESOLVED), 0),
    ((WITHIN, UNRESOLVED, UNRESOLVED_GATED), 1),
])
def test_an_unresolved_evals_per_s_row_fails_the_gate(tmp_path, rows, code):
    """Compare exits 0 (no ``worse`` row); only an unresolved ``evals_per_s``
    turns that into a failure."""
    build_trees(tmp_path, rows=rows, compare_exit=0)
    completed = run_runner(tmp_path, "--pairs", "1")
    assert completed.returncode == code
    assert f"compare_commits: {len(rows) - 1} of {len(rows)} rows unresolved" in completed.stdout
    assert ("evals_per_s is unresolved" in completed.stdout) == bool(code)


def test_a_failing_run_fails_the_script_before_any_compare(tmp_path):
    log = build_trees(tmp_path, failing_seed=8)
    completed = run_runner(tmp_path, "--pairs", "3")
    assert completed.returncode != 0
    assert "the head run at seed 8 exited 1" in completed.stderr
    sides = [entry["side"] for entry in read_log(log)]
    assert sides == ["base", "head", "head"]
    assert not (tmp_path / "out" / "base.json").exists()
