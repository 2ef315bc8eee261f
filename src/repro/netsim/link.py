"""The bottleneck link and its drop-tail gateway queue.

The paper's network model (section 3.1) has one gateway: a fixed-size
drop-tail FIFO, shared by the flow under test and the cross traffic, feeding
the bottleneck.  The link is that queue's one writer, so it owns it:
:meth:`Link.admit` offers it packets of the flow under test, and the link's
own event loop (:meth:`Link.run_events`) admits cross arrivals and serves
the head of line.  Two service disciplines match the paper's fuzzing modes:
:class:`FixedRateLink` (traffic mode: the adversary controls cross traffic)
and the MahiMahi-style :class:`TraceDrivenLink` (link mode: the adversary
controls the service curve, a list of transmission opportunities).

The FIFO holds :class:`Packet`s of the flow under test and cross admission
times (floats), told apart by type.  A packet of the flow under test goes to
``deliver`` after the fixed one-way propagation delay.  Cross traffic is
open-loop, only counted at the sink (section 3.3), so its arrival is no
event: a served cross item that reaches the sink by the run's horizon
appends its admission and departure times to two columns.  Depth samples,
one per admission, tail drop and service, are two columns too (times,
depths): a tuple per sample was a measurable slice of the per-packet cost.

The link runs its own schedule, not scheduler entries (see
:mod:`repro.netsim.engine`), in one loop for both kinds, and claims each
event's ``seq`` where scheduling it as an entry would have: a block for the
opportunities and then one for the cross arrivals at start, and each
fixed-rate completion when it is armed.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

from .engine import EventScheduler, sorted_input_times
from .packet import CCA_FLOW, CROSS_FLOW, MSS_BYTES, Packet

DeliveryCallback = Callable[[Packet], None]

#: Where an exhausted or idle stream of the link sits.
INF = float("inf")


def mbps_to_pps(rate_mbps: float) -> float:
    """Convert a rate in Mbps to MSS-sized packets per second."""
    if rate_mbps <= 0:
        raise ValueError("rate must be positive")
    return rate_mbps * 1e6 / (8.0 * MSS_BYTES)


def pps_to_mbps(rate_pps: float) -> float:
    """Convert a rate in packets per second to Mbps."""
    return rate_pps * 8.0 * MSS_BYTES / 1e6


class Link:
    """Common behaviour for bottleneck links, and their gateway queue.

    Packets of the flow under test are passed to ``deliver`` after
    ``propagation_delay`` seconds.  A served cross item whose sink arrival is
    at or before the run's (inclusive) horizon is recorded in
    ``cross_admissions`` / ``cross_departures``.  The FIFO holds
    ``capacity_packets`` (60 is roughly 1.5x the bandwidth-delay product of
    the paper's 12 Mbps / 40 ms RTT setup); ``sample_depth`` is off in
    fuzzing runs (``record_series=False``), which never read the samples.

    Its events are the cross arrivals ``_cross[i]``, keyed ``_cross_seq + i``,
    and services, the next keyed ``(_serve_at, _serve_seq)``; ``head`` is the
    earlier key.
    """

    __slots__ = (
        "scheduler", "deliver", "propagation_delay", "horizon",
        "capacity", "fifo", "drops", "_sample_depth", "_depth_times", "_depth_values",
        "cross_admissions", "cross_departures", "cross_sent", "wasted_opportunities",
        "head", "_service_time", "_opportunities", "_opportunity_seq",
        "_cross", "_cross_seq", "_serve_at", "_serve_seq",
    )

    def __init__(
        self,
        scheduler: EventScheduler,
        deliver: DeliveryCallback,
        propagation_delay: float = 0.02,
        *,
        capacity_packets: int = 60,
        sample_depth: bool = True,
    ) -> None:
        if capacity_packets <= 0:
            raise ValueError("queue capacity must be positive")
        self.scheduler = scheduler
        self.deliver = deliver
        self.propagation_delay = propagation_delay
        self.horizon = INF
        self.capacity = capacity_packets
        self.fifo: Deque[Union[Packet, float]] = deque()
        #: Tail drops at the gateway, by flow.
        self.drops: Dict[str, int] = {}
        self._sample_depth = sample_depth
        self._depth_times: List[float] = []
        self._depth_values: List[int] = []
        #: Admission and departure times of the cross packets that reached
        #: the sink, in service order.
        self.cross_admissions: List[float] = []
        self.cross_departures: List[float] = []
        #: Cross arrivals run so far, and services that found the queue empty.
        self.cross_sent = self.wasted_opportunities = 0
        self.head: Optional[tuple] = None
        # A fixed-rate link's time per service; None on a trace-driven link,
        # whose services are ``_opportunities[k]`` keyed ``_opportunity_seq + k``.
        self._service_time: Optional[float] = None
        self._opportunities: Optional[List[float]] = None
        self._cross, self._cross_seq = [INF], 0
        self._serve_at = self._serve_seq = self._opportunity_seq = INF
        scheduler.attach_link(self)

    @property
    def depth_samples(self) -> List[Tuple[float, int]]:
        """(time, depth) samples, one per admission, tail drop and service."""
        return list(zip(self._depth_times, self._depth_values))

    def _claim(self, times: Sequence[float], horizon: float) -> tuple:
        """The sorted ``times`` up to ``horizon`` + an ``INF`` sentinel, and their first ``seq``."""
        count = bisect_right(times, horizon)
        first = self.scheduler._seq
        self.scheduler._seq += count
        return [*times[:count], INF], first

    def start(self, horizon: float, cross_times: Sequence[float] = ()) -> None:
        """Claim the ``seq`` block of the sorted ``cross_times`` up to ``horizon``."""
        self.horizon = horizon
        self._cross, self._cross_seq = self._claim(cross_times, horizon)
        head = min((self._cross[0], self._cross_seq), (self._serve_at, self._serve_seq))
        self.head = head if head[0] < INF else None

    def admit(self, packet: Packet, now: float) -> bool:
        """A packet of the flow under test reaches the gateway at ``now``:
        queued, or tail-dropped; True if queued."""
        fifo = self.fifo
        admitted = len(fifo) < self.capacity
        if admitted:
            packet.enqueue_time = now
            fifo.append(packet)
            if self._serve_at == INF and self._service_time is not None:
                # An idle fixed-rate link starts serving.  Its completion
                # claims the newest seq, so only an earlier time moves head.
                scheduler = self.scheduler
                self._serve_at, self._serve_seq = now + self._service_time, scheduler._seq
                scheduler._seq += 1
                if self.head is None or self._serve_at < self.head[0]:
                    self.head = (self._serve_at, self._serve_seq)
        else:
            self.drops[CCA_FLOW] = self.drops.get(CCA_FLOW, 0) + 1
        if self._sample_depth:
            self._depth_times.append(now)
            self._depth_values.append(len(fifo))
        return admitted

    def run_events(self, bound: Any, horizon: float, budget: int) -> int:
        """Run this link's events keyed before ``bound`` and at or before
        ``horizon``, at most ``budget`` of them (see :mod:`.engine`)."""
        # An event keyed (t, s) runs while (t, s) < (end, end_seq).
        end, end_seq = (horizon, INF) if bound is None or horizon < bound[0] else bound[:2]
        scheduler, lane = self.scheduler, self.scheduler.lane
        seq, deliveries = scheduler._seq, lane._events
        fifo, capacity, drops, sampling = self.fifo, self.capacity, self.drops, self._sample_depth
        depth_times, depth_values = self._depth_times, self._depth_values
        delay, deliver, record_until = self.propagation_delay, self.deliver, self.horizon
        service_time, opportunities = self._service_time, self._opportunities
        cross, cross_seq, sent = self._cross, self._cross_seq, self.cross_sent
        serve_at, serve_seq = self._serve_at, self._serve_seq
        ran = 0
        while True:
            at = cross[sent]
            if at < serve_at or (at == serve_at and cross_seq + sent < serve_seq):
                # A cross arrival: queued as its time, or tail-dropped.
                if ran == budget or at > end or (at == end and cross_seq + sent > end_seq):
                    head = (at, cross_seq + sent) if at < INF else None
                    break
                now = at
                sent += 1
                if len(fifo) < capacity:
                    fifo.append(now)
                    if serve_at == INF and service_time is not None:
                        serve_at, serve_seq = now + service_time, seq
                        seq += 1
                else:
                    drops[CROSS_FLOW] = drops.get(CROSS_FLOW, 0) + 1
                if sampling:
                    depth_times.append(now)
                    depth_values.append(len(fifo))
            else:
                # A service: a completion or a transmission opportunity.
                if ran == budget or serve_at > end or (serve_at == end and serve_seq > end_seq):
                    head = (serve_at, serve_seq) if serve_at < INF else None
                    break
                now = serve_at
                if fifo:
                    item = fifo.popleft()
                    if sampling:
                        depth_times.append(now)
                        depth_values.append(len(fifo))
                    arrival = now + delay
                    if type(item) is float:
                        if arrival <= record_until:
                            self.cross_admissions.append(item)
                            self.cross_departures.append(now)
                    else:
                        item.dequeue_time = now
                        deliveries.append((arrival, seq, None, deliver, (item,)))
                        # The delivery is an entry of the propagation lane:
                        # no later link event may run before it.
                        if arrival < end or (arrival == end and seq < end_seq):
                            end, end_seq = arrival, seq
                        seq += 1
                else:
                    self.wasted_opportunities += 1
                if opportunities is not None:
                    serve_seq += 1
                    serve_at = opportunities[serve_seq - self._opportunity_seq]
                elif fifo:
                    # Busy self-clocking: chain the next completion.
                    serve_at, serve_seq = now + service_time, seq
                    seq += 1
                else:
                    serve_at = serve_seq = INF
            ran += 1
        scheduler.now, scheduler._seq = now, seq
        if deliveries:
            lane._last_time = deliveries[-1][0]
        self.cross_sent, self.head = sent, head
        self._serve_at, self._serve_seq = serve_at, serve_seq
        return ran


class FixedRateLink(Link):
    """Constant-rate bottleneck (traffic-fuzzing mode).

    The link serves one packet every ``1 / rate_pps`` seconds whenever the
    queue is non-empty.  Service is work-conserving.  ``gateway`` is the
    queue's ``capacity_packets`` and ``sample_depth`` (see :class:`Link`).
    """

    __slots__ = ("rate_pps",)

    def __init__(
        self,
        scheduler: EventScheduler,
        deliver: DeliveryCallback,
        rate_pps: float,
        propagation_delay: float = 0.02,
        **gateway: Any,
    ) -> None:
        super().__init__(scheduler, deliver, propagation_delay, **gateway)
        if rate_pps <= 0:
            raise ValueError("link rate must be positive")
        self.rate_pps = rate_pps
        self._service_time = 1.0 / rate_pps


class TraceDrivenLink(Link):
    """MahiMahi-style trace-driven bottleneck (link-fuzzing mode).

    The service curve is a sorted sequence of timestamps; at each timestamp
    the link may transmit exactly one packet.  Opportunities that find an
    empty queue are wasted (non-work-conserving), exactly as in MahiMahi and
    in the paper's link-fuzzing representation (section 3.2).

    Parameters
    ----------
    opportunities:
        Packet transmission opportunity times, in seconds.  They need not be
        pre-sorted.
    gateway:
        The queue's ``capacity_packets`` and ``sample_depth`` (see :class:`Link`).
    """

    __slots__ = ("opportunities",)

    def __init__(
        self,
        scheduler: EventScheduler,
        deliver: DeliveryCallback,
        opportunities: Sequence[float],
        propagation_delay: float = 0.02,
        **gateway: Any,
    ) -> None:
        super().__init__(scheduler, deliver, propagation_delay, **gateway)
        self.opportunities: List[float] = sorted_input_times(
            opportunities, "transmission opportunities"
        )

    def start(self, horizon: float, cross_times: Sequence[float] = ()) -> None:
        """Claim the opportunities' ``seq`` block, then the cross arrivals'."""
        opportunities, first = self._claim(self.opportunities, horizon)
        self._opportunities, self._opportunity_seq = opportunities, first
        self._serve_at, self._serve_seq = opportunities[0], first
        super().start(horizon, cross_times)
