"""Bottleneck link models.

Two service disciplines are provided, matching the paper's two fuzzing modes
(section 3.1):

* :class:`FixedRateLink` — a constant-rate bottleneck used in traffic-fuzzing
  mode, where the adversary controls cross traffic only.
* :class:`TraceDrivenLink` — a MahiMahi-style link whose service is defined by
  a list of packet transmission opportunities, used in link-fuzzing mode,
  where the adversary controls the bottleneck service curve itself.

Both links drain the shared drop-tail gateway queue, whose FIFO holds
:class:`Packet`s of the flow under test and cross admission times (floats),
and tell the two apart by type.  A packet of the flow under test goes to a
delivery callback after the fixed one-way propagation delay.  Cross traffic
is open-loop, only counted at the sink (section 3.3), so its arrival is no
event: a served cross item that reaches the sink by the run's horizon
appends its admission and departure times to two columns.

The service loop is self-clocked on scheduler fast lanes: while the queue is
busy, each service completion chains dequeue → transmit → next completion
directly, and both the completion stream and the propagation-delayed delivery
stream are monotone in time, so neither round-trips packets through the event
heap.  Execution order (tie-breaks included) is identical to heap scheduling.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from .engine import EventScheduler, FifoLane, sorted_input_times
from .packet import Packet
from .queue import DropTailQueue

DeliveryCallback = Callable[[Packet], None]


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
    topology.  A served cross item whose sink arrival is at or before the
    run's (inclusive) horizon is recorded in ``cross_admissions`` /
    ``cross_departures``.
    """

    __slots__ = (
        "scheduler", "queue", "deliver", "propagation_delay", "horizon",
        "cross_admissions", "cross_departures", "_delivery_lane",
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
        #: Admission and departure times of the cross packets that reached
        #: the sink, in service order.
        self.cross_admissions: List[float] = []
        self.cross_departures: List[float] = []
        # Deliveries happen a fixed propagation delay after each (monotone)
        # service completion, so they form a monotone fast lane.  The
        # topology shares this lane for returning ACKs (same fixed delay,
        # same nondecreasing clock), keeping the per-event lane scan short.
        self._delivery_lane: FifoLane = scheduler.fifo_lane()

    @property
    def propagation_lane(self) -> FifoLane:
        """The monotone lane carrying fixed-propagation-delay events."""
        return self._delivery_lane

    def start(self, horizon: float) -> None:
        """Install any service events needed before a run of ``horizon`` seconds."""
        self.horizon = horizon


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
        queue.set_enqueue_callback(self.on_enqueue)

    def on_enqueue(self, now: float) -> None:
        """The queue admitted an item at ``now``: start serving if idle."""
        if not self._busy:
            self._busy = True
            self._service_lane.push_at(now + self._service_time, self._finish_service)

    def _finish_service(self) -> None:
        now = self.scheduler.now
        item = self.queue.dequeue(now)
        if item is not None:
            arrival = now + self.propagation_delay
            if type(item) is float:
                if arrival <= self.horizon:
                    self.cross_admissions.append(item)
                    self.cross_departures.append(now)
            else:
                item.dequeue_time = now
                self._delivery_lane.push_at(arrival, self.deliver, item)
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

    def start(self, horizon: float) -> None:
        """Schedule all transmission opportunities up to ``horizon``."""
        super().start(horizon)
        lane = self._opportunity_lane
        callback = self._service_opportunity
        for t in self.opportunities:
            if t > horizon:
                continue
            lane.push_at(t, callback)

    def _service_opportunity(self) -> None:
        now = self.scheduler.now
        item = self.queue.dequeue(now)
        if item is None:
            self.wasted_opportunities += 1
            return
        arrival = now + self.propagation_delay
        if type(item) is float:
            if arrival <= self.horizon:
                self.cross_admissions.append(item)
                self.cross_departures.append(now)
        else:
            item.dequeue_time = now
            self._delivery_lane.push_at(arrival, self.deliver, item)
