"""The DIST_PACKETS recursive packet-distribution algorithm (paper Fig. 2).

DIST_PACKETS spreads ``num`` packet timestamps over ``[start, end]`` by
recursively splitting the interval and the packet count in two.  At every
split the average rate of each half must stay within a multiplicative band of
the parent's average rate (0.5x - 2x in the paper), which bounds long-term
bandwidth variation.  Once the interval length drops below ``k_agg`` the
bound checks are relaxed, allowing arbitrary short-term burstiness that
models aggregation and jitter.

Traffic-fuzzing mode drops the rate constraints entirely (section 3.3),
which is obtained by passing ``rate_bound=None``.
"""

from __future__ import annotations

import random
from math import isfinite
from typing import List, Optional, Tuple

#: Default aggregation threshold below which rate bounds are not enforced (50 ms).
DEFAULT_K_AGG = 0.05

#: Default multiplicative rate bound (each half must stay within [rate/2, rate*2]).
DEFAULT_RATE_BOUND = 2.0

#: Give up searching for a constrained split after this many attempts and fall
#: back to an even split; keeps the algorithm total despite unlucky sampling.
_MAX_SPLIT_ATTEMPTS = 256


def dist_packets(
    num: int,
    start: float,
    end: float,
    rng: random.Random,
    k_agg: float = DEFAULT_K_AGG,
    rate_bound: Optional[float] = DEFAULT_RATE_BOUND,
) -> List[float]:
    """Distribute ``num`` packet timestamps over ``[start, end]``.

    Parameters
    ----------
    num:
        Number of packets to place.
    start, end:
        Interval bounds in seconds.
    rng:
        Random source (deterministic given a seed, as the GA requires).
    k_agg:
        Aggregation threshold: intervals shorter than this are split without
        rate constraints.
    rate_bound:
        Multiplicative local-rate bound; ``None`` disables the constraint
        entirely (traffic-fuzzing mode).

    Returns
    -------
    list of float
        Sorted packet timestamps.
    """
    if num < 0:
        raise ValueError("num must be non-negative")
    if not (isfinite(start) and isfinite(end)):
        raise ValueError(f"interval bounds must be finite, got [{start}, {end}]")
    if end < start:
        raise ValueError(f"invalid interval [{start}, {end}]")
    if rate_bound is not None and rate_bound <= 1.0:
        raise ValueError("rate_bound must exceed 1.0 (or be None to disable)")

    # One flat loop instead of recursion (adversarially unbalanced splits
    # could exceed Python's recursion limit): walk down each interval's left
    # half in place and keep only the right halves on the stack, which keeps
    # the output naturally close to sorted.  The split draws are inlined
    # verbatim from ``random.Random``: ``uniform(lo, hi)`` is
    # ``lo + (hi - lo) * random()`` and ``randint(0, n)`` is ``randrange``'s
    # ``getrandbits`` rejection loop, so the output and the final RNG state
    # equal those calls' (``tests/test_distpackets.py`` holds the reference).
    random_ = rng.random
    getrandbits = rng.getrandbits
    result: List[float] = []
    stack: List[Tuple[int, float, float]] = []
    n, lo, hi = num, start, end
    while True:
        if n > 1:
            span = hi - lo
            if span > 0:
                # Pick a split time and left-half packet count honouring the
                # rate bound; an even split is the fallback, and always does.
                rate = n / span
                relaxed = span < k_agg or rate_bound is None
                if not relaxed:
                    rate_hi = rate_bound * rate
                    rate_lo = rate / rate_bound
                bound = n + 1
                bits = bound.bit_length()
                for _ in range(_MAX_SPLIT_ATTEMPTS):
                    t_split = lo + span * random_()
                    n_left = getrandbits(bits)
                    while n_left >= bound:
                        n_left = getrandbits(bits)
                    if relaxed:
                        if lo < t_split < hi:
                            break
                        continue
                    left_span = t_split - lo
                    right_span = hi - t_split
                    if left_span <= 0 or right_span <= 0:
                        continue
                    left_rate = n_left / left_span
                    right_rate = (n - n_left) / right_span
                    if left_rate > rate_hi or right_rate > rate_hi:
                        continue
                    if left_rate < rate_lo or right_rate < rate_lo:
                        continue
                    break
                else:
                    t_split, n_left = lo + span / 2.0, n // 2
                stack.append((n - n_left, t_split, hi))
                n, hi = n_left, t_split
                continue
            # Degenerate interval: all packets land on the same instant.
            result.extend([lo] * n)
        elif n == 1:
            result.append((lo + hi) / 2.0)
        if not stack:
            break
        n, lo, hi = stack.pop()
    result.sort()
    return result
