"""Bottleneck link models.

Two service disciplines are provided, matching the paper's two fuzzing modes
(section 3.1):

* :class:`FixedRateLink` — a constant-rate bottleneck used in traffic-fuzzing
  mode, where the adversary controls cross traffic only.
* :class:`TraceDrivenLink` — a MahiMahi-style link whose service is defined by
  a list of packet transmission opportunities, used in link-fuzzing mode,
  where the adversary controls the bottleneck service curve itself.

Both links drain the shared drop-tail gateway queue and hand packets of the
flow under test to a delivery callback after the fixed one-way propagation
delay.  Cross traffic is open-loop, only counted at the sink (section 3.3),
so its arrival is no event: the link counts it when it serves the packet.

The service loop is self-clocked on scheduler fast lanes: while the queue is
busy, each service completion chains dequeue → transmit → next completion
directly, and both the completion stream and the propagation-delayed delivery
stream are monotone in time, so neither round-trips packets through the event
heap.  Execution order (tie-breaks included) is identical to heap scheduling.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from .engine import EventScheduler, FifoLane, sorted_input_times
from .packet import CCA_FLOW, Packet
from .queue import DropTailQueue

DeliveryCallback = Callable[[Packet], None]
#: Records a cross packet's sink arrival: ``(packet, arrival_time)``.
SinkCounter = Callable[[Packet, float], None]


def _uncounted(packet: Packet, arrival: float) -> None:
    """A link started without a sink counter keeps no cross-traffic count."""


def mbps_to_pps(rate_mbps: float, mss_bytes: int = 1500) -> float:
    """Convert a rate in Mbps to MSS-sized packets per second."""
    if rate_mbps <= 0:
        raise ValueError("rate must be positive")
    return rate_mbps * 1e6 / (8.0 * mss_bytes)


def pps_to_mbps(rate_pps: float, mss_bytes: int = 1500) -> float:
    """Convert a rate in packets per second to Mbps."""
    return rate_pps * 8.0 * mss_bytes / 1e6


class Link:
    """Common behaviour for bottleneck links.

    A link is attached to the gateway queue and a scheduler.  Packets of the
    flow under test are passed to ``deliver`` after ``propagation_delay``
    seconds, modelling the fixed-propagation bottleneck of the paper's
    topology.  Any other packet is cross traffic: at service time it goes to
    the ``count_at_sink`` that :meth:`start` was given, with its arrival time,
    if that is at or before the run's (inclusive) horizon.
    """

    __slots__ = (
        "scheduler", "queue", "deliver", "propagation_delay", "horizon",
        "count_at_sink", "_delivery_lane",
    )

    def __init__(
        self,
        scheduler: EventScheduler,
        queue: DropTailQueue,
        deliver: DeliveryCallback,
        propagation_delay: float = 0.02,
    ) -> None:
        self.scheduler = scheduler
        self.queue = queue
        self.deliver = deliver
        self.propagation_delay = propagation_delay
        self.horizon = float("inf")
        self.count_at_sink: SinkCounter = _uncounted
        # Deliveries happen a fixed propagation delay after each (monotone)
        # service completion, so they form a monotone fast lane.  The
        # topology shares this lane for returning ACKs (same fixed delay,
        # same nondecreasing clock), keeping the per-event lane scan short.
        self._delivery_lane: FifoLane = scheduler.fifo_lane()
        queue.set_enqueue_callback(self.on_enqueue)

    @property
    def propagation_lane(self) -> FifoLane:
        """The monotone lane carrying fixed-propagation-delay events."""
        return self._delivery_lane

    def on_enqueue(self, packet: Packet, now: float) -> None:
        """Hook called by the queue when a packet is admitted."""

    def start(self, horizon: float, count_at_sink: SinkCounter = _uncounted) -> None:
        """Install any service events needed before a run of ``horizon``
        seconds, whose cross-traffic arrivals go to ``count_at_sink``."""
        self.horizon = horizon
        self.count_at_sink = count_at_sink


class FixedRateLink(Link):
    """Constant-rate bottleneck (traffic-fuzzing mode).

    The link serves one packet every ``1 / rate_pps`` seconds whenever the
    queue is non-empty.  Service is work-conserving.
    """

    __slots__ = ("rate_pps", "_service_time", "_busy", "_service_lane")

    def __init__(
        self,
        scheduler: EventScheduler,
        queue: DropTailQueue,
        deliver: DeliveryCallback,
        rate_pps: float,
        propagation_delay: float = 0.02,
    ) -> None:
        super().__init__(scheduler, queue, deliver, propagation_delay)
        if rate_pps <= 0:
            raise ValueError("link rate must be positive")
        self.rate_pps = rate_pps
        self._service_time = 1.0 / rate_pps
        self._busy = False
        # While busy, completions fire every service time; pushes happen at
        # nondecreasing times, so the stream is monotone.
        self._service_lane: FifoLane = scheduler.fifo_lane()

    def on_enqueue(self, packet: Packet, now: float) -> None:
        if not self._busy:
            self._busy = True
            self._service_lane.push_at(now + self._service_time, self._finish_service)

    def _finish_service(self) -> None:
        now = self.scheduler.now
        packet = self.queue.dequeue(now)
        if packet is not None:
            arrival = now + self.propagation_delay
            if packet.flow == CCA_FLOW:
                self._delivery_lane.push_at(arrival, self.deliver, packet)
            elif arrival <= self.horizon:
                self.count_at_sink(packet, arrival)
        if self.queue._queue:
            # Busy self-clocking: chain the next departure without going
            # idle (matches the work-conserving service discipline).
            self._service_lane.push_at(now + self._service_time, self._finish_service)
        else:
            self._busy = False


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
    """

    __slots__ = ("opportunities", "wasted_opportunities", "_opportunity_lane")

    def __init__(
        self,
        scheduler: EventScheduler,
        queue: DropTailQueue,
        deliver: DeliveryCallback,
        opportunities: Sequence[float],
        propagation_delay: float = 0.02,
    ) -> None:
        super().__init__(scheduler, queue, deliver, propagation_delay)
        self.opportunities: List[float] = sorted_input_times(
            opportunities, "transmission opportunities"
        )
        self.wasted_opportunities = 0
        # Opportunities are installed pre-sorted, so they form a monotone lane.
        self._opportunity_lane: FifoLane = scheduler.fifo_lane()

    def start(self, horizon: float, count_at_sink: SinkCounter = _uncounted) -> None:
        """Schedule all transmission opportunities up to ``horizon``."""
        super().start(horizon, count_at_sink)
        lane = self._opportunity_lane
        callback = self._service_opportunity
        for t in self.opportunities:
            if t > horizon:
                continue
            lane.push_at(t, callback)

    def _service_opportunity(self) -> None:
        now = self.scheduler.now
        packet = self.queue.dequeue(now)
        if packet is None:
            self.wasted_opportunities += 1
            return
        arrival = now + self.propagation_delay
        if packet.flow == CCA_FLOW:
            self._delivery_lane.push_at(arrival, self.deliver, packet)
        elif arrival <= self.horizon:
            self.count_at_sink(packet, arrival)
