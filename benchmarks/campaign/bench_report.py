"""Tables over saved results: ``compare A.json B.json`` and ``--selfcheck``."""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List

from bench_estimator import median, relative_iqr


def write_json(path: str, document: Dict[str, Any]) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


def values(document: Dict[str, Any], workload: str, kind: str, metric: str) -> List[float]:
    runs = document["workloads"].get(workload, {}).get("runs", [])
    return [run[kind][metric] for run in runs if metric in run.get(kind, {})]


def worse_by(metric: Dict[str, Any], before: float, after: float) -> float:
    """How much worse ``after`` is than ``before``, as a share of ``before``."""
    change = (after - before) / before if before else 0.0
    return change if metric["better"] == "lower" else -change


def verdict(metric: Dict[str, Any], before: List[float], after: List[float]) -> Dict[str, Any]:
    """better / within bound / worse / unresolved for one workload x metric.

    ``unresolved`` is the honest answer when the run-to-run spread of either
    side is wider than the bound, unless every run of ``after`` reads better
    than every run of ``before``.
    """
    bound = metric["bound"]
    delta = worse_by(metric, median(before), median(after))
    spread = max(relative_iqr(before), relative_iqr(after))
    lower = metric["better"] == "lower"
    clean_win = (max(after) < min(before)) if lower else (min(after) > max(before))
    if spread > bound and not clean_win:
        word = "unresolved"
    elif delta > bound:
        word = "worse"
    elif delta < -max(spread, 0.01):
        word = "better"
    else:
        word = "within bound"
    return {"delta": delta, "spread": spread, "bound": bound, "verdict": word}


def compare(before: Dict[str, Any], after: Dict[str, Any], contract: Dict[str, Any]) -> int:
    """One row per workload x end-to-end metric; returns the count of ``worse``."""
    print(f"{'workload':<18}{'metric':<24}{'before':>12}{'after':>12}{'worse by':>10}"
          f"{'spread':>8}{'bound':>7}  verdict")
    worse = 0
    for workload in before["workloads"]:
        for metric in contract["end_to_end"]:
            old = values(before, workload, "end_to_end", metric["name"])
            new = values(after, workload, "end_to_end", metric["name"])
            if not old or not new:
                continue
            row = verdict(metric, old, new)
            worse += row["verdict"] == "worse"
            print(f"{workload:<18}{metric['name']:<24}{median(old):>12.5g}{median(new):>12.5g}"
                  f"{100 * row['delta']:>9.1f}%{100 * row['spread']:>7.1f}%"
                  f"{100 * row['bound']:>6.0f}%  {row['verdict']}")
    return worse


def compare_main(argv: List[str], contract: Dict[str, Any]) -> int:
    if len(argv) != 2:
        sys.stderr.write("usage: run.py compare BEFORE.json AFTER.json\n")
        return 2
    documents = []
    for path in argv:
        with open(path, "r", encoding="utf-8") as handle:
            documents.append(json.load(handle))
    return 1 if compare(documents[0], documents[1], contract) else 0


def selfcheck(first: Dict[str, Any], second: Dict[str, Any], contract: Dict[str, Any]) -> int:
    """Two sets of runs of the same code must agree within every bound.

    The uncalibrated twin of each timing metric is printed beside it, so what
    the estimator buys on this host stays visible.
    """
    print(f"{'workload':<18}{'metric':<24}{'first':>12}{'second':>12}{'differ':>8}"
          f"{'raw':>8}{'bound':>7}  verdict")
    failures = 0
    for workload in first["workloads"]:
        for metric in contract["end_to_end"]:
            name = metric["name"]
            one = values(first, workload, "end_to_end", name)
            two = values(second, workload, "end_to_end", name)
            differ = abs(median(two) - median(one)) / median(one)
            raw_one = values(first, workload, "raw", name)
            raw_two = values(second, workload, "raw", name)
            raw = (
                f"{100 * abs(median(raw_two) - median(raw_one)) / median(raw_one):>7.1f}%"
                if raw_one and raw_two else f"{'-':>8}"
            )
            ok = differ <= metric["bound"]
            failures += not ok
            print(f"{workload:<18}{name:<24}{median(one):>12.5g}{median(two):>12.5g}"
                  f"{100 * differ:>7.1f}%{raw}{100 * metric['bound']:>6.0f}%  "
                  f"{'ok' if ok else 'EXCEEDS BOUND'}")
    incorrect = [
        workload
        for document in (first, second)
        for workload, entry in document["workloads"].items()
        if not all(run["correct"] for run in entry["runs"])
    ]
    for workload in incorrect:
        print(f"{workload}: outputs were wrong", file=sys.stderr)
    return 1 if failures or incorrect else 0
