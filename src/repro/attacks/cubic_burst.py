"""The two-burst cross-traffic pattern behind the CUBIC finding (section 4.2).

The paper distills the GA's winning traces against CUBIC into a minimal
two-burst pattern: the first burst overflows the gateway queue and drops a
segment, the second burst lands roughly one RTT later and kills that
segment's fast retransmission.  The victim falls into an RTO and back to
slow start; against the NS3 CUBIC variant the post-RTO cumulative ACK then
triggers the unclamped slow-start window jump, but even correct CUBIC loses
most of its throughput to the forced timeout.

This is also the canonical triage fixture: the hand-crafted trace is already
close to minimal, so the delta-debugging minimizer must preserve its
two-burst structure while shaving redundant packets off each burst.
"""

from __future__ import annotations

from ..traces.trace import TrafficTrace
from .bbr_stall import _burst


def cubic_two_burst_trace(
    duration: float = 6.0,
    hole_time: float = 1.0,
    hole_burst_packets: int = 120,
    retransmission_burst_packets: int = 250,
    retransmission_delay: float = 0.06,
) -> TrafficTrace:
    """The minimal CUBIC attack: drop a segment, then its fast retransmission.

    Parameters mirror the section-4 setup: the first burst must overflow the
    12 Mbps / 60-packet bottleneck queue (so one of the victim's segments is
    lost), and the second burst must still be saturating the queue when the
    fast retransmission of that hole arrives — roughly one round-trip (plus
    queue-drain time) after the first burst.
    """
    # Short traces pull the hole forward instead of silently dropping every
    # packet past the end: the attack stays non-empty at any duration.
    hole_time = min(hole_time, duration * 0.4)
    spike_hole = _burst(hole_time, hole_burst_packets, 0.02)
    spike_retransmission = _burst(
        hole_time + retransmission_delay, retransmission_burst_packets, 0.16
    )
    times = sorted(t for t in spike_hole + spike_retransmission if t < duration)
    return TrafficTrace(
        timestamps=times,
        duration=duration,
        metadata={"kind": "traffic", "attack": "cubic_two_burst"},
        max_packets=max(len(times), 1),
    )
