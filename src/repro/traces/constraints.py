"""Trace validation and rate-variation metrics.

The DIST_PACKETS constraints are generative (they hold at every recursive
split), so they cannot be checked exactly after the fact.  These utilities
provide the observable consequences that tests and the realism analysis rely
on: windowed-rate variation bounds, burstiness measures and structural
validity checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .trace import PacketTrace, TrafficTrace


@dataclass
class TraceValidationError(Exception):
    """Raised when a trace violates a structural invariant."""

    message: str

    def __str__(self) -> str:
        return self.message


def validate_trace(trace: PacketTrace) -> None:
    """Check structural invariants: sorted, in range, within packet budget."""
    timestamps = trace.timestamps
    if any(t < 0.0 or t > trace.duration for t in timestamps):
        raise TraceValidationError(
            f"timestamps must lie within [0, {trace.duration}]"
        )
    if any(b < a for a, b in zip(timestamps, timestamps[1:])):
        raise TraceValidationError("timestamps must be sorted")
    if isinstance(trace, TrafficTrace) and trace.packet_count > trace.max_packets:
        raise TraceValidationError(
            f"traffic trace exceeds its packet budget "
            f"({trace.packet_count} > {trace.max_packets})"
        )


def is_valid_trace(trace: PacketTrace) -> bool:
    """Boolean form of :func:`validate_trace`."""
    try:
        validate_trace(trace)
    except TraceValidationError:
        return False
    return True


def may_join_population(
    mode: Optional[str],
    duration: float,
    average_rate_mbps: Optional[float],
    *,
    into_mode: str,
    into_duration: float,
    link_rate_mbps: Optional[float],
) -> bool:
    """Whether a trace of this mode, duration and rate may join a population.

    The GA's operators preserve mode and duration, so both must match; a link
    trace *is* the service curve and mutation keeps its packet count, so its
    rate must match too (within 2 %: budgets round to whole packets) — a
    5 Mbps curve in a 12 Mbps search is the degenerate "just lower the
    bandwidth" solution the fixed-packet-budget invariant (section 3.2)
    exists to prevent.  ``link_rate_mbps=None`` asks for no rate constraint.
    Takes scalars so corpus seeding can decide on index rows alone.
    """
    if mode != into_mode or duration != into_duration:
        return False
    if mode != "link" or link_rate_mbps is None:
        return True
    return average_rate_mbps is not None and abs(average_rate_mbps - link_rate_mbps) <= (
        0.02 * link_rate_mbps
    )


def windowed_rate_extremes(
    trace: PacketTrace, window: float
) -> Tuple[float, float, float]:
    """(min, mean, max) windowed rate in packets/second for the given window."""
    rates = [rate for _, rate in trace.windowed_rates_pps(window)]
    if not rates:
        return (0.0, 0.0, 0.0)
    return (min(rates), sum(rates) / len(rates), max(rates))


def max_rate_deviation(trace: PacketTrace, window: float) -> float:
    """Largest multiplicative deviation of windowed rate from the trace average.

    A value of 2.0 means some window ran at twice (or half) the average rate.
    Returns ``inf`` when some window is empty while the average is non-zero.
    """
    avg = trace.average_rate_pps
    if avg == 0:
        return 1.0
    low, _, high = windowed_rate_extremes(trace, window)
    over = high / avg if avg > 0 else float("inf")
    under = avg / low if low > 0 else float("inf")
    return max(over, under)


def burstiness_index(trace: PacketTrace, window: float) -> float:
    """Coefficient of variation of windowed rates (0 = perfectly smooth)."""
    rates = [rate for _, rate in trace.windowed_rates_pps(window)]
    if not rates:
        return 0.0
    mean = sum(rates) / len(rates)
    if mean == 0:
        return 0.0
    variance = sum((r - mean) ** 2 for r in rates) / len(rates)
    return (variance ** 0.5) / mean


def longest_silence(trace: PacketTrace) -> float:
    """Longest gap (seconds) with no packets, including the leading/trailing gap."""
    if trace.packet_count == 0:
        return trace.duration
    gaps = [trace.timestamps[0]]
    gaps.extend(b - a for a, b in zip(trace.timestamps, trace.timestamps[1:]))
    gaps.append(trace.duration - trace.timestamps[-1])
    return max(gaps)
