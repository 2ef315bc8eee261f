"""The low-rate ("shrew") TCP attack of Kuzmanovic & Knightly (SIGCOMM 2003).

CC-Fuzz rediscovers this attack automatically for TCP-Reno (paper section
4.3): short periodic bursts of cross traffic, spaced at the retransmission
timeout, repeatedly cause the same packets (and their retransmissions) to be
lost, which keeps the sender in RTO backoff and pins its throughput near
zero.  This module builds the hand-crafted version of that traffic pattern so
it can serve as the known baseline the GA output is compared against.
"""

from __future__ import annotations

from typing import List

from ..traces.trace import TrafficTrace


def lowrate_attack_times(
    duration: float,
    period: float = 1.0,
    burst_packets: int = 280,
    burst_duration: float = 0.22,
    start: float = 0.5,
) -> List[float]:
    """Injection times for a periodic low-rate attack.

    Parameters
    ----------
    duration:
        Length of the attack trace in seconds.
    period:
        Spacing between bursts.  The classic attack uses the victim's minimum
        RTO (1 second in the paper's setup) so every recovery attempt runs
        into the next burst.
    burst_packets:
        Packets per burst; it must be enough to keep the bottleneck queue full
        for the whole burst so that the victim's packets *and* their fast
        retransmissions are dropped.  The default saturates the paper's
        12 Mbps / 60-packet-queue bottleneck for ~200 ms.
    burst_duration:
        Length of each burst; it must cover the victim's fast-retransmission
        window (a couple of round-trip times plus the full-queue drain time).
    start:
        Time of the first burst (after the victim's slow start has begun).
    """
    if period <= 0 or burst_duration <= 0:
        raise ValueError("period and burst_duration must be positive")
    if burst_packets <= 0:
        raise ValueError("burst_packets must be positive")
    times: List[float] = []
    burst_start = start
    while burst_start < duration:
        spacing = burst_duration / burst_packets
        times.extend(
            burst_start + i * spacing
            for i in range(burst_packets)
            if burst_start + i * spacing < duration
        )
        burst_start += period
    return times


def lowrate_attack_trace(
    duration: float,
    period: float = 1.0,
    burst_packets: int = 280,
    burst_duration: float = 0.22,
    start: float = 0.5,
) -> TrafficTrace:
    """The shrew attack as a :class:`TrafficTrace` (the known baseline)."""
    times = lowrate_attack_times(
        duration=duration,
        period=period,
        burst_packets=burst_packets,
        burst_duration=burst_duration,
        start=start,
    )
    return TrafficTrace(
        timestamps=times,
        duration=duration,
        metadata={
            "kind": "traffic",
            "attack": "lowrate",
            "period": period,
            "burst_packets": burst_packets,
            "burst_duration": burst_duration,
        },
        max_packets=max(len(times), 1),
    )


def attack_rate_mbps(trace: TrafficTrace) -> float:
    """Average rate of the attack traffic — "low rate" means well below the link."""
    return trace.average_rate_mbps
