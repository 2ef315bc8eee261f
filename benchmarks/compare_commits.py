"""Judge this checkout against another commit with the campaign benchmark.

    python benchmarks/compare_commits.py BASE_DIR [--pairs 5] [--out DIR]

Pair ``i`` runs each tree's own ``benchmarks/campaign/run.py --trace 0
--seed SEED+i``, the base first in even pairs and the head (this checkout)
first in odd ones, so a host whose speed drifts weighs on both sides alike.
Each side's runs are merged into one run-set document (``DIR/base.json``,
``DIR/head.json``) and judged by the head's ``run.py compare`` against
``BENCHMARK.json``'s bounds.  Its table, with a count of the ``unresolved``
rows (spread wider than the bound), goes to stdout and ``DIR/compare.txt``.
The exit code is compare's (1 on any ``worse`` row), or 1 if an
``evals_per_s`` row is unresolved: the gate cannot tell whether the change
is slower.  A run that exits non-zero (``run.py`` does when an output was
wrong) stops the script, non-zero, before any compare.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional

HEAD = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "head")
RUN_PY = os.path.join("benchmarks", "campaign", "run.py")  #: run from each tree's root
SEED = 7  #: pair i runs at SEED + i, run.py's own default seed first
GATED = "evals_per_s"  #: an unresolved row of this metric fails the gate


def merge(paths: List[str]) -> Dict[str, Any]:
    """One document holding every run of ``paths``, workload by workload."""
    merged: Dict[str, Any] = {"workloads": {}}
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        merged.setdefault("seed", document["seed"])
        merged.setdefault("seconds", document["seconds"])
        for name, entry in document["workloads"].items():
            merged["workloads"].setdefault(name, {"runs": []})["runs"].extend(entry["runs"])
    return merged


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="checkout of the commit to compare against")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--out", default=os.path.join(HEAD, ".bench_work", "compare"))
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"base": os.path.abspath(args.base), "head": HEAD}
    out = os.path.abspath(args.out)
    os.makedirs(out, exist_ok=True)
    # Each run.py puts its own tree's src/ first; a PYTHONPATH must not mix them.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}

    runs: Dict[str, List[str]] = {side: [] for side in SIDES}
    for pair in range(args.pairs):
        seed = SEED + pair
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            path = os.path.join(out, f"{side}-{seed}.json")
            print(f"compare_commits: pair {pair}, {side}, seed {seed}", flush=True)
            command = [sys.executable, RUN_PY, "--trace", "0", "--seed", str(seed), "--out", path]
            code = subprocess.run(command, cwd=trees[side], env=env).returncode
            if code:
                raise SystemExit(f"compare_commits: the {side} run at seed {seed} exited {code}")
            runs[side].append(path)

    documents = [os.path.join(out, f"{side}.json") for side in SIDES]
    for side, path in zip(SIDES, documents):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(merge(runs[side]), handle, indent=1, sort_keys=True)
            handle.write("\n")
    compared = subprocess.run([sys.executable, RUN_PY, "compare", *documents],
                              cwd=HEAD, env=env, stdout=subprocess.PIPE, text=True)
    table, code = compared.stdout, compared.returncode
    rows = table.splitlines()[1:]
    unresolved = [row.split()[1] for row in rows if row.endswith(" unresolved")]
    table += f"compare_commits: {len(unresolved)} of {len(rows)} rows unresolved\n"
    if GATED in unresolved:
        table += f"compare_commits: {GATED} is unresolved, so a slowdown cannot be ruled out\n"
        code = code or 1
    sys.stdout.write(table)
    with open(os.path.join(out, "compare.txt"), "w", encoding="utf-8") as handle:
        handle.write(table)
    return code


if __name__ == "__main__":
    sys.exit(main())
