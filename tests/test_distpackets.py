"""Tests for the DIST_PACKETS trace-distribution algorithm (paper Fig. 2)."""

from __future__ import annotations

import math
import random
from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.distpackets import _MAX_SPLIT_ATTEMPTS, dist_packets


def test_zero_packets_gives_empty_trace(rng):
    assert dist_packets(0, 0.0, 5.0, rng) == []


def test_single_packet_lands_at_interval_midpoint(rng):
    assert dist_packets(1, 2.0, 4.0, rng) == [3.0]


def test_packet_count_preserved(rng):
    for num in [2, 17, 100, 1000]:
        timestamps = dist_packets(num, 0.0, 5.0, rng)
        assert len(timestamps) == num


def test_timestamps_sorted_and_in_range(rng):
    timestamps = dist_packets(500, 0.0, 5.0, rng)
    assert timestamps == sorted(timestamps)
    assert all(0.0 <= t <= 5.0 for t in timestamps)


def test_negative_count_rejected(rng):
    with pytest.raises(ValueError):
        dist_packets(-1, 0.0, 1.0, rng)


def test_inverted_interval_rejected(rng):
    with pytest.raises(ValueError):
        dist_packets(10, 2.0, 1.0, rng)


def test_invalid_rate_bound_rejected(rng):
    with pytest.raises(ValueError):
        dist_packets(10, 0.0, 1.0, rng, rate_bound=1.0)


@pytest.mark.parametrize("start, end", [(0.0, math.nan), (math.nan, 1.0), (0.0, math.inf), (-math.inf, 1.0)])
def test_non_finite_bounds_rejected(rng, start, end):
    with pytest.raises(ValueError, match="finite"):
        dist_packets(5, start, end, rng)


def test_deterministic_given_seed():
    a = dist_packets(200, 0.0, 5.0, random.Random(42))
    b = dist_packets(200, 0.0, 5.0, random.Random(42))
    assert a == b


def test_different_seeds_differ():
    a = dist_packets(200, 0.0, 5.0, random.Random(1))
    b = dist_packets(200, 0.0, 5.0, random.Random(2))
    assert a != b


def test_long_term_rate_variation_bounded(rng):
    """With the 0.5x-2x constraint, coarse windows stay near the average rate.

    The constraint applies recursively at every split above k_agg, so a
    half-trace window can deviate by at most 2x; deeper windows compound but
    coarse windows (one quarter of the trace) stay within roughly 4x.
    """
    duration = 5.0
    num = 5000
    timestamps = dist_packets(num, 0.0, duration, rng, k_agg=0.05, rate_bound=2.0)
    average_per_quarter = num / 4
    for start in [0.0, 1.25, 2.5, 3.75]:
        count = sum(1 for t in timestamps if start <= t < start + 1.25)
        assert count <= 4 * average_per_quarter
        assert count >= average_per_quarter / 4


def test_unconstrained_mode_allows_extreme_burstiness():
    """Without rate bounds (traffic mode) all packets can land in one burst."""
    rng = random.Random(7)
    found_extreme = False
    for _ in range(50):
        timestamps = dist_packets(200, 0.0, 5.0, rng, rate_bound=None)
        half = sum(1 for t in timestamps if t < 2.5)
        if half < 20 or half > 180:
            found_extreme = True
            break
    assert found_extreme, "unconstrained generation never produced a lopsided trace"


def test_constrained_mode_never_collapses_to_one_side(rng):
    """With bounds, neither half of the trace can be nearly empty or hold everything."""
    for _ in range(20):
        timestamps = dist_packets(1000, 0.0, 5.0, rng, k_agg=0.05, rate_bound=2.0)
        left = sum(1 for t in timestamps if t < 2.5)
        assert 150 <= left <= 850


def test_small_interval_relaxes_constraints(rng):
    """Intervals below k_agg may be arbitrarily bursty but keep the count."""
    timestamps = dist_packets(40, 0.0, 0.04, rng, k_agg=0.05, rate_bound=2.0)
    assert len(timestamps) == 40
    assert all(0.0 <= t <= 0.04 for t in timestamps)


@settings(max_examples=50, deadline=None)
@given(
    num=st.integers(min_value=0, max_value=400),
    duration=st.floats(min_value=0.1, max_value=20.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_count_order_and_range(num, duration, seed):
    """Property: any parameters give exactly `num` sorted in-range timestamps."""
    rng = random.Random(seed)
    timestamps = dist_packets(num, 0.0, duration, rng)
    assert len(timestamps) == num
    assert timestamps == sorted(timestamps)
    assert all(0.0 <= t <= duration for t in timestamps)


@settings(max_examples=30, deadline=None)
@given(
    num=st.integers(min_value=2, max_value=300),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    offset=st.floats(min_value=0.0, max_value=100.0),
)
def test_property_respects_interval_offset(num, seed, offset):
    """Property: generation over [offset, offset + 3] stays inside that interval."""
    rng = random.Random(seed)
    timestamps = dist_packets(num, offset, offset + 3.0, rng)
    assert all(offset <= t <= offset + 3.0 for t in timestamps)


def _reference_dist_packets(
    num: int,
    start: float,
    end: float,
    rng: random.Random,
    k_agg: float,
    rate_bound: Optional[float],
) -> List[float]:
    """The stack-and-split DIST_PACKETS that calls ``rng.uniform`` and
    ``rng.randint``, frozen as the reference for the flat loop's inlined draws."""
    result: List[float] = []
    stack: List[tuple] = [(num, start, end)]
    while stack:
        n, lo, hi = stack.pop()
        if n == 0:
            continue
        if n == 1:
            result.append((lo + hi) / 2.0)
            continue
        span = hi - lo
        if span <= 0:
            result.extend([lo] * n)
            continue
        t_split, n_left = _reference_choose_split(n, lo, hi, rng, k_agg, rate_bound)
        stack.append((n - n_left, t_split, hi))
        stack.append((n_left, lo, t_split))
    result.sort()
    return result


def _reference_choose_split(num, start, end, rng, k_agg, rate_bound):
    span = end - start
    rate = num / span
    relaxed = span < k_agg or rate_bound is None
    for _ in range(_MAX_SPLIT_ATTEMPTS):
        t_split = rng.uniform(start, end)
        n_left = rng.randint(0, num)
        if relaxed:
            if start < t_split < end:
                return t_split, n_left
            continue
        left_span = t_split - start
        right_span = end - t_split
        if left_span <= 0 or right_span <= 0:
            continue
        left_rate = n_left / left_span
        right_rate = (num - n_left) / right_span
        if left_rate > rate_bound * rate or right_rate > rate_bound * rate:
            continue
        if left_rate < rate / rate_bound or right_rate < rate / rate_bound:
            continue
        return t_split, n_left
    return start + span / 2.0, num // 2


@settings(max_examples=80, deadline=None)
@given(
    num=st.integers(min_value=0, max_value=2000),
    start=st.floats(min_value=0.0, max_value=100.0),
    width=st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=20.0)),
    k_agg_over_width=st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=2.0)),
    rate_bound=st.sampled_from([None, 2.0]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_flat_loop_matches_reference(
    num, start, width, k_agg_over_width, rate_bound, seed
):
    """Property: the flat loop makes the reference's draws in the reference's
    order, so the timestamps and the final RNG state are equal bit for bit.
    ``k_agg`` falls on both sides of the interval's span and exactly on it,
    and a zero width covers the degenerate interval."""
    end = start + width
    k_agg = (end - start) * k_agg_over_width
    flat_rng, reference_rng = random.Random(seed), random.Random(seed)
    flat = dist_packets(num, start, end, flat_rng, k_agg=k_agg, rate_bound=rate_bound)
    reference = _reference_dist_packets(
        num, start, end, reference_rng, k_agg=k_agg, rate_bound=rate_bound
    )
    assert flat == reference
    assert flat_rng.getstate() == reference_rng.getstate()


def test_flat_loop_matches_reference_through_the_fallback_split():
    """A bound no random split can meet exhausts the attempts, so both take
    the even split after the same 256 draws."""
    flat_rng, reference_rng = random.Random(3), random.Random(3)
    flat = dist_packets(3, 0.0, 1.0, flat_rng, k_agg=0.0, rate_bound=1.0 + 1e-12)
    reference = _reference_dist_packets(3, 0.0, 1.0, reference_rng, 0.0, 1.0 + 1e-12)
    assert flat == reference
    assert flat_rng.getstate() == reference_rng.getstate()
