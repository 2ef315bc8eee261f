"""Shared helpers for the benchmark harness.

Every benchmark regenerates the data behind one figure or finding of the
paper and prints the corresponding rows/series, so running

    pytest benchmarks/ --benchmark-only -s

reproduces the full evaluation section.  Wall-clock timings are reported by
pytest-benchmark; the asserted properties are the *shape* of each result
(who wins, by roughly what factor), not absolute numbers.  The two harness
files beside them (telemetry overhead, dashboard replay) assert counts and
budgets, never a timing.

Performance is measured in one place, ``benchmarks/campaign/`` (campaigns,
calibrated CPU time, bounds from ``BENCHMARK.json``), and judged by running
two commits' copies of it in alternating pairs on one host:
``python benchmarks/compare_commits.py BASE_DIR``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Sequence


def run_once(benchmark, func: Callable, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing.

    The underlying experiments are whole simulations or GA runs, so repeated
    timing rounds would multiply minutes of work for no extra insight.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def print_series(title: str, series: Iterable, max_rows: int = 40) -> None:
    """Print an (x, y) series as aligned rows."""
    rows = list(series)
    print(f"\n--- {title} ---")
    step = max(1, len(rows) // max_rows)
    for index in range(0, len(rows), step):
        x, y = rows[index]
        print(f"  {x:10.3f}  {y:12.4f}")


def print_rows(title: str, rows: Sequence[Dict[str, object]]) -> None:
    """Print a list of dict rows as a small table."""
    print(f"\n--- {title} ---")
    if not rows:
        print("  (no rows)")
        return
    columns = list(rows[0].keys())
    print("  " + " | ".join(f"{c:>18}" for c in columns))
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column)
            if isinstance(value, float):
                cells.append(f"{value:18.4f}")
            else:
                cells.append(f"{str(value):>18}")
        print("  " + " | ".join(cells))
