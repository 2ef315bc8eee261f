#!/usr/bin/env python3
"""The campaign benchmark: one command, every metric, outputs checked.

    python benchmarks/campaign/run.py [--seed 7]            all four workloads
    python benchmarks/campaign/run.py --workload sim_bound --seed 3 --seconds 20 --trace 0
    python benchmarks/campaign/run.py --smoke               seconds, not minutes
    python benchmarks/campaign/run.py --selfcheck           two sets against the bounds
    python benchmarks/campaign/run.py compare A.json B.json

Every metric is printed as ``workload/metric value unit`` and written as JSON
(``--out``).  With one ``--workload`` and ``--trace 0`` or ``1`` the last line
of standard output is the result object the benchmark contract asks for.  The
exit code is non-zero when any output was wrong.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import subprocess
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import bench_report  # noqa: E402
from bench_workloads import REPO_ROOT, WORKLOADS, require_source_tree  # noqa: E402


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------- #
# The measuring child: one workload, one pinned process
# ---------------------------------------------------------------------- #


def child_main(args: argparse.Namespace) -> int:
    require_source_tree()
    import bench_measure
    import bench_trace

    bench_measure.pin_to_one_cpu()
    workload = WORKLOADS[args.workload]
    contract = load_contract()
    scale = args.seconds / contract["run_seconds"]
    payload: Dict[str, Any] = {"attempted": 0, "failed": 0, "problems": []}

    def absorb(ledger) -> None:
        payload["attempted"] += ledger.attempted
        payload["failed"] += ledger.failed
        payload["problems"].extend(ledger.problems)

    if args.smoke:
        scale = 2.0 / workload.rounds
    if args.trace in ("0", "both"):
        measured = bench_measure.measure_end_to_end(
            workload, args.seed, scale, args.scratch, setup_launches=1 if args.smoke else 5
        )
        payload["end_to_end"] = measured["metrics"]
        payload["raw"] = measured["raw"]
        payload["info"] = measured["info"]
        absorb(measured["ledger"])
    if args.trace in ("1", "both"):
        traced = bench_trace.measure_per_layer(
            workload, args.seed, args.scratch,
            rounds=1 if args.smoke else bench_trace.TRACED_ROUNDS,
            repeats=1 if args.smoke else bench_trace.DEFAULT_REPEATS,
            warm=args.trace == "1",
            trace_out=args.trace_out,
        )
        payload["per_layer"] = traced["metrics"]
        payload["trace_info"] = traced["info"]
        absorb(traced["ledger"])
    payload["correct"] = payload["failed"] == 0
    with open(args.child_result, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return 0


# ---------------------------------------------------------------------- #
# The parent: spawn, collect, print
# ---------------------------------------------------------------------- #


def run_workload(args: argparse.Namespace, name: str, seed: int, scratch_root: str) -> Dict[str, Any]:
    scratch = os.path.join(scratch_root, name)
    os.makedirs(scratch)
    result_path = os.path.join(scratch_root, f"{name}.json")
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", name, "--seed", str(seed), "--seconds", str(args.seconds),
        "--trace", args.trace, "--child-result", result_path, "--scratch", scratch,
    ]
    if args.smoke:
        command.append("--smoke")
    if args.trace_out:
        command += ["--trace-out", os.path.abspath(args.trace_out)]
    # Everything the program or its pool writes to a temp dir stays in the checkout.
    env = dict(os.environ, TMPDIR=scratch)
    try:
        completed = subprocess.run(command, env=env)
        if completed.returncode != 0:
            raise SystemExit(f"campaign benchmark: workload {name} exited {completed.returncode}")
        with open(result_path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def units(contract: Dict[str, Any]) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}


def contract_metrics(contract: Dict[str, Any], kind: str, values: Dict[str, float]) -> Dict[str, Any]:
    """Exactly the names ``BENCHMARK.json`` lists for ``kind``, finite."""
    out = {}
    for metric in contract[kind]:
        value = values[metric["name"]]
        if not math.isfinite(value):
            raise SystemExit(f"campaign benchmark: {metric['name']} is {value}")
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return out


def print_workload(contract: Dict[str, Any], name: str, result: Dict[str, Any]) -> None:
    unit = units(contract)
    for kind in ("end_to_end", "per_layer"):
        for metric, value in result.get(kind, {}).items():
            print(f"{name}/{metric} {value:.6g} {unit.get(metric, '')}".rstrip())
    for metric, value in result.get("raw", {}).items():
        print(f"{name}/raw.{metric} {value:.6g} {unit.get(metric, '')} (uncalibrated)")
    share = result["failed"] / max(1, result["attempted"])
    print(f"{name}/failed_ops_share {share:.6g} ratio ({result['failed']} of {result['attempted']})")
    for problem in result["problems"]:
        print(f"{name}: FAILED {problem}", file=sys.stderr)


def run_set(args: argparse.Namespace, names: List[str], scratch_root: str) -> Dict[str, Any]:
    """``--runs`` runs of every named workload, seeds ``seed, seed+1, ...``."""
    contract = load_contract()
    document: Dict[str, Any] = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in names:
        runs = []
        for offset in range(args.runs):
            result = run_workload(args, name, args.seed + offset, scratch_root)
            print_workload(contract, name, result)
            sys.stdout.flush()
            runs.append(result)
        document["workloads"][name] = {"runs": runs}
    return document


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        return bench_report.compare_main(argv[1:], load_contract())

    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]))
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    parser.add_argument("--runs", type=int, default=1, help="runs per workload, one seed apart")
    parser.add_argument("--smoke", action="store_true", help="2 rounds, 1 read corpus, 1 launch")
    parser.add_argument("--selfcheck", action="store_true", help="two sets, compared to the bounds")
    parser.add_argument("--write-golden", action="store_true",
                        help="re-pin golden.json at --seed (a change of its own, never with a perf claim)")
    parser.add_argument("--out", help="write every number as JSON here")
    parser.add_argument("--trace-out", help="dump the traced rounds' spans as JSON here")
    parser.add_argument("--child-result", help=argparse.SUPPRESS)
    parser.add_argument("--scratch", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child_result:
        return child_main(args)

    require_source_tree()
    from bench_measure import WORK_ROOT

    if args.smoke and not args.workload:
        args.workload = "pool_dispatch"
    names = [args.workload] if args.workload else list(WORKLOADS)
    scratch_root = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    os.makedirs(scratch_root)
    try:
        if args.write_golden:
            from bench_measure import write_golden

            write_golden([WORKLOADS[name] for name in names], args.seed, scratch_root)
            return 0
        if args.selfcheck:
            first = run_set(args, names, scratch_root)
            second = run_set(args, names, scratch_root)
            if args.out:
                bench_report.write_json(args.out, {"first": first, "second": second})
            return bench_report.selfcheck(first, second, contract)
        document = run_set(args, names, scratch_root)
    finally:
        shutil.rmtree(scratch_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)
    if args.out:
        bench_report.write_json(args.out, document)

    results = [run for entry in document["workloads"].values() for run in entry["runs"]]
    correct = all(result["correct"] for result in results)
    if len(results) == 1 and args.trace in ("0", "1"):
        result = results[0]
        kind = "end_to_end" if args.trace == "0" else "per_layer"
        print(json.dumps({
            "correct": correct,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": contract_metrics(contract, kind, result[kind]),
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
