"""Trace annealing: Gaussian smoothing of link-trace timestamps.

The paper (section 3.2) optionally smooths link traces between evaluation and
mutation.  Over generations this washes out bandwidth variation in regions
that are irrelevant to the poor behaviour being triggered, leaving traces
that are easier to interpret, while elite traces that rely on sharp features
keep re-winning despite the smoothing.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from ..traces.trace import LinkTrace

#: Modes whose traces are smoothed before mutation when annealing is on.  The
#: paper only anneals link traces — smoothing a traffic trace would defeat
#: the minimality pressure applied by the trace score.
ANNEALED_MODES = ("link",)


def gaussian_kernel(sigma: float, radius: int) -> List[float]:
    """Discrete, normalised Gaussian kernel of width ``2 * radius + 1``."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if radius < 0:
        raise ValueError("radius must be non-negative")
    weights = [math.exp(-0.5 * (offset / sigma) ** 2) for offset in range(-radius, radius + 1)]
    total = sum(weights)
    return [w / total for w in weights]


def smooth_timestamps(
    timestamps: Sequence[float],
    sigma: float,
    duration: float,
) -> List[float]:
    """Gaussian-smooth a sorted timestamp sequence (in index space).

    Each timestamp is replaced by a Gaussian-weighted average of its
    neighbours' timestamps within ``3 * sigma`` indices.  Because the kernel
    is symmetric and positive and the input is sorted, the output remains
    sorted; endpoints are clamped to ``[0, duration]``.
    """
    n = len(timestamps)
    if n == 0:
        return []
    radius = max(1, int(math.ceil(3 * sigma)))
    kernel = gaussian_kernel(sigma, radius)
    smoothed: List[float] = []
    for i in range(n):
        acc = 0.0
        weight_acc = 0.0
        for k, w in enumerate(kernel):
            j = i + k - radius
            if j < 0 or j >= n:
                continue
            acc += w * timestamps[j]
            weight_acc += w
        value = acc / weight_acc if weight_acc > 0 else timestamps[i]
        smoothed.append(min(max(value, 0.0), duration))
    return smoothed


def anneal_link_trace(trace: LinkTrace, sigma: float = 2.0) -> LinkTrace:
    """Return a smoothed copy of ``trace`` (packet count preserved)."""
    smoothed = smooth_timestamps(trace.timestamps, sigma, trace.duration)
    annealed = trace.with_timestamps(smoothed)
    annealed.metadata["annealed"] = True
    return annealed
