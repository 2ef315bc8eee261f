"""Cross-traffic injection.

In traffic-fuzzing mode the adversary controls a sequence of cross-traffic
packet injection times (section 3.3).  The cross traffic is open-loop
("UDP-like"): packets are pushed into the gateway queue at the trace times
regardless of drops, and simply counted at the sink (by the link, at service
time: a cross packet's arrival is no scheduler event).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from .engine import EventScheduler, FifoLane, sorted_input_times
from .packet import CROSS_FLOW, DEFAULT_MSS, Packet

EnqueueCallback = Callable[[Packet, float], bool]


class CrossTrafficSource:
    """Injects one cross-traffic packet into the gateway per trace timestamp.

    Parameters
    ----------
    scheduler:
        Simulation event scheduler.
    enqueue:
        Callable that admits a packet to the gateway queue and returns whether
        it was accepted (``False`` means tail-dropped).
    injection_times:
        Packet injection timestamps in seconds.
    """

    __slots__ = ("scheduler", "enqueue", "injection_times", "mss_bytes", "sent", "dropped", "_lane")

    def __init__(
        self,
        scheduler: EventScheduler,
        enqueue: EnqueueCallback,
        injection_times: Sequence[float],
        mss_bytes: int = DEFAULT_MSS,
    ) -> None:
        self.scheduler = scheduler
        self.enqueue = enqueue
        self.injection_times: List[float] = sorted_input_times(
            injection_times, "cross-traffic injection times"
        )
        self.mss_bytes = mss_bytes
        self.sent = 0
        self.dropped = 0
        # Injections are installed pre-sorted, so they form a monotone lane.
        self._lane: FifoLane = scheduler.fifo_lane()

    def start(self, horizon: Optional[float] = None) -> None:
        """Schedule every injection (optionally clipped to ``horizon``)."""
        if horizon is not None and horizon < 0:
            raise ValueError(f"horizon must be non-negative (got {horizon})")
        lane = self._lane
        callback = self._inject
        for t in self.injection_times:
            if horizon is not None and t > horizon:
                continue
            lane.push_at(t, callback)

    def _inject(self) -> None:
        now = self.scheduler.now
        packet = Packet(CROSS_FLOW, self.sent, self.mss_bytes, False, now)
        self.sent += 1
        admitted = self.enqueue(packet, now)
        if not admitted:
            self.dropped += 1
