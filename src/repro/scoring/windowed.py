"""Windowed-throughput helpers used by the performance scores."""

from __future__ import annotations

from typing import Sequence


def bottom_fraction_mean(values: Sequence[float], fraction: float) -> float:
    """Mean of the lowest ``fraction`` of ``values`` (at least one value).

    This is the aggregation the paper uses for the low-utilisation score
    (section 3.4): averaging the worst windows rather than the whole run
    avoids rewarding traces that only hurt the CCA early on.
    """
    if not values:
        return 0.0
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    ordered = sorted(values)
    count = max(1, int(round(fraction * len(ordered))))
    worst = ordered[:count]
    return sum(worst) / len(worst)


def top_fraction_mean(values: Sequence[float], fraction: float) -> float:
    """Mean of the highest ``fraction`` of ``values`` (at least one value)."""
    if not values:
        return 0.0
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    ordered = sorted(values, reverse=True)
    count = max(1, int(round(fraction * len(ordered))))
    best = ordered[:count]
    return sum(best) / len(best)


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (``pct`` in [0, 100])."""
    if not values:
        return 0.0
    if not 0.0 <= pct <= 100.0:
        raise ValueError("pct must be in [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = pct / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight
