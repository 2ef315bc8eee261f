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


#: The first burst, at ``HOLE_TIME`` s, must overflow the 12 Mbps /
#: 60-packet bottleneck queue of the section-4 setup, so one of the victim's
#: segments is lost.
HOLE_TIME = 1.0
HOLE_BURST_PACKETS = 120
#: The second burst must still be saturating the queue when the fast
#: retransmission of that hole arrives: roughly one round trip (plus
#: queue-drain time) after the first burst.
RETRANSMISSION_BURST_PACKETS = 250
RETRANSMISSION_DELAY = 0.06


def cubic_two_burst_trace(duration: float) -> TrafficTrace:
    """The minimal CUBIC attack: drop a segment, then its fast retransmission.

    The two bursts are this module's constants, sized for the section-4
    bottleneck.
    """
    # Short traces pull the hole forward instead of silently dropping every
    # packet past the end: the attack stays non-empty at any duration.
    hole_time = min(HOLE_TIME, duration * 0.4)
    spike_hole = _burst(hole_time, HOLE_BURST_PACKETS, 0.02)
    spike_retransmission = _burst(
        hole_time + RETRANSMISSION_DELAY, RETRANSMISSION_BURST_PACKETS, 0.16
    )
    times = sorted(t for t in spike_hole + spike_retransmission if t < duration)
    return TrafficTrace(
        timestamps=times,
        duration=duration,
        metadata={"kind": "traffic", "attack": "cubic_two_burst"},
        max_packets=max(len(times), 1),
    )
