"""Hand-crafted traces that trigger the BBR stall of paper section 4.1.

The genetic search discovers traces with this structure automatically
(Fig. 4a/4b); the crafted versions here make the mechanism reproducible in a
single deterministic run, which is what the Fig. 4c mechanism analysis and
several tests build on.

Mechanism recap: a cross-traffic burst overflows the gateway queue and drops
some of BBR's packets; a second burst ~1 RTT later drops the fast
retransmission of the first hole.  BBR keeps sending new (SACKed) data while
it waits out the 1-second minimum RTO, so when the RTO finally fires the most
recently sent packets' SACKs are still in flight.  The RTO marks them lost,
BBR spuriously retransmits them, the arriving original SACKs then produce
rate samples anchored on the rewritten ``prior_delivered`` stamps — ending
probing rounds prematurely and filling the 10-round max filter with tiny
samples.  The bandwidth estimate collapses and the delayed-ACK feedback loop
keeps it collapsed.
"""

from __future__ import annotations

from typing import List, Optional

from ..netsim.link import mbps_to_pps
from ..netsim.simulation import SimulationConfig
from ..traces.trace import LinkTrace, TrafficTrace


#: :func:`bbr_stall_traffic_trace`: the first burst, then one every
#: ``STALL_BURST_PERIOD`` s (about one minimum RTO), each
#: ``STALL_BURST_PACKETS`` packets over ``STALL_BURST_DURATION`` s.
STALL_FIRST_BURST_TIME = 1.0
STALL_BURST_PACKETS = 350
STALL_BURST_DURATION = 0.25
STALL_BURST_PERIOD = 1.05

#: :func:`bbr_double_loss_burst_trace`'s three spikes: the hole at
#: ``DOUBLE_LOSS_HOLE_TIME``, the retransmission killer 60 ms later, and the
#: RTO spike ``DOUBLE_LOSS_RTO_DELAY`` s after the hole.
DOUBLE_LOSS_HOLE_TIME = 1.0
DOUBLE_LOSS_HOLE_BURST_PACKETS = 100
DOUBLE_LOSS_RETRANSMISSION_BURST_PACKETS = 250
DOUBLE_LOSS_RTO_BURST_PACKETS = 900
DOUBLE_LOSS_RTO_DELAY = 0.95

#: :func:`bbr_stall_link_trace`'s outages as (start, length) in seconds: one
#: long outage that spans the victim's retransmission timeout plus periodic
#: follow-up outages.  Packets (and retransmissions) sent into the blocked,
#: overflowing queue are lost, SACKs are delayed past the RTO, and the
#: catch-up bursts deliver those SACKs right after the spurious
#: retransmissions.
STALL_OUTAGES = ((1.0, 1.15), (2.6, 0.45), (3.8, 0.45), (5.0, 0.45))

#: :func:`bbr_delay_attack_trace`: the prefill lands at the start of the
#: trace, and the reinforcing stream starts during BBR's STARTUP.
DELAY_PREFILL_TIME = 0.0
DELAY_REINFORCE_START = 0.3


def _burst(start: float, packets: int, duration: float) -> List[float]:
    spacing = duration / max(packets, 1)
    return [start + i * spacing for i in range(packets)]


def bbr_stall_traffic_trace(duration: float) -> TrafficTrace:
    """Cross-traffic pattern that wrecks default BBR's bandwidth estimate.

    This is the structure CC-Fuzz's traffic fuzzing converges to for the
    low-throughput objective against BBR (section 4.1): intense bursts spaced
    roughly one minimum-RTO apart.  Each burst (i) overflows the gateway
    queue, losing some of BBR's packets and usually their fast
    retransmissions, which forces a retransmission timeout, and (ii) the next
    burst lands around that RTO, so the flow's delayed SACKs arrive right
    after the spurious retransmissions — producing the rewritten
    ``prior_delivered`` samples that prematurely end probing rounds and fill
    the bandwidth max-filter with tiny values.  Between bursts the link is
    idle, yet BBR cannot use it because its own estimate has collapsed.
    """
    times: List[float] = []
    start = STALL_FIRST_BURST_TIME
    while start < duration:
        times.extend(
            t for t in _burst(start, STALL_BURST_PACKETS, STALL_BURST_DURATION) if t < duration
        )
        start += STALL_BURST_PERIOD
    times.sort()
    return TrafficTrace(
        timestamps=times,
        duration=duration,
        metadata={
            "kind": "traffic",
            "attack": "bbr_stall",
            "burst_packets": STALL_BURST_PACKETS,
            "burst_period": STALL_BURST_PERIOD,
        },
        max_packets=max(len(times), 1),
    )


def bbr_double_loss_burst_trace(duration: float) -> TrafficTrace:
    """The minimal three-spike pattern behind the Fig. 4a finding.

    Spike 1 creates the hole, spike 2 (one RTT later) kills its fast
    retransmission, and spike 3 lands around the pending retransmission
    timeout so that the flow's SACKs are delayed past the RTO.  After the
    cross traffic ends the flow remains persistently degraded.
    """
    hole_time = DOUBLE_LOSS_HOLE_TIME
    spike_1 = _burst(hole_time, DOUBLE_LOSS_HOLE_BURST_PACKETS, 0.01)
    spike_2 = _burst(hole_time + 0.06, DOUBLE_LOSS_RETRANSMISSION_BURST_PACKETS, 0.16)
    spike_3 = _burst(hole_time + DOUBLE_LOSS_RTO_DELAY, DOUBLE_LOSS_RTO_BURST_PACKETS, 0.35)
    times = sorted(t for t in spike_1 + spike_2 + spike_3 if t < duration)
    return TrafficTrace(
        timestamps=times,
        duration=duration,
        metadata={"kind": "traffic", "attack": "bbr_double_loss"},
        max_packets=max(len(times), 1),
    )


def bbr_stall_link_trace(duration: float) -> LinkTrace:
    """Link-mode equivalent of the stall trace: repeated service outages.

    During each outage the bottleneck serves nothing, so the flow's packets
    queue up, overflow and are lost (including fast retransmissions whose
    window an outage covers), and SACKs are delayed until service resumes.
    The withheld transmission opportunities are replayed in a catch-up burst
    right after each outage, so the trace keeps the fixed total packet budget
    (and therefore ``SimulationConfig``'s average rate) that link fuzzing
    requires.

    The outage schedule, :data:`STALL_OUTAGES`, mirrors what link fuzzing
    converges to.
    """
    outages = STALL_OUTAGES
    rate_pps = mbps_to_pps(SimulationConfig.bottleneck_rate_mbps)
    total_packets = int(round(rate_pps * duration))
    interval = 1.0 / rate_pps

    def in_outage(t: float) -> Optional[int]:
        for index, (start, length) in enumerate(outages):
            if start <= t < start + length:
                return index
        return None

    times: List[float] = []
    deferred = [0] * len(outages)
    t = 0.0
    for _ in range(total_packets):
        index = in_outage(t)
        if index is None:
            times.append(t)
        else:
            deferred[index] += 1
        t += interval
    for (start, length), count in zip(outages, deferred):
        if count:
            times.extend(_burst(start + length, count, 0.05))
    times = sorted(min(x, duration - 1e-6) for x in times)
    return LinkTrace(
        timestamps=times,
        duration=duration,
        metadata={"kind": "link", "attack": "bbr_stall", "outages": list(outages)},
    )


def bbr_delay_attack_trace(
    duration: float,
    prefill_packets: int = 150,
    reinforce_end: float = 1.4,
    reinforce_packets: int = 300,
) -> TrafficTrace:
    """Cross traffic that makes BBR hold a large standing queue (Fig. 4e).

    Two components, mirroring what the GA finds with the high-delay score:
    (1) fill the queue just before the BBR flow starts so BBR never observes
    the true minimum RTT (its RTprop filter latches an inflated value for the
    whole 10-second filter window), and (2) keep a moderate cross-traffic
    stream flowing through BBR's STARTUP/DRAIN phase so the queue never fully
    empties — otherwise DRAIN would reveal the true RTT and undo the attack.

    The paper's Fig. 4e shows queueing delays of 100-200 ms, which implies a
    bottleneck buffer of a few hundred packets; run this trace with
    ``SimulationConfig(queue_capacity=250)`` (as the Fig. 4e benchmark does)
    and a sender start time slightly after the prefill.
    """
    prefill = _burst(DELAY_PREFILL_TIME, prefill_packets, duration=0.03)
    reinforce = _burst(
        DELAY_REINFORCE_START, reinforce_packets, duration=reinforce_end - DELAY_REINFORCE_START
    )
    times = sorted(t for t in prefill + reinforce if t < duration)
    return TrafficTrace(
        timestamps=times,
        duration=duration,
        metadata={"kind": "traffic", "attack": "bbr_delay"},
        max_packets=max(len(times), 1),
    )
