"""Drop-tail FIFO gateway queue.

The paper's network model (section 3.1) uses a single gateway with a
fixed-size drop-tail FIFO queue shared by the flow under test and the cross
traffic.  This module implements exactly that queue, with per-flow drop
accounting and optional depth sampling for analysis.

The FIFO holds :class:`~repro.netsim.packet.Packet`s of the flow under test
and cross admission times: cross traffic is open-loop and only counted at
the sink, so a cross packet's admission time is all there is to it.

Depth samples are kept in two parallel columns (times, depths) because one
sample is taken per enqueue/dequeue/drop — building a tuple for each was a
measurable slice of the per-packet cost.  ``depth_samples`` materialises the
``(time, depth)`` pairs on demand.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

from .packet import CCA_FLOW, CROSS_FLOW, Packet

#: What the FIFO holds: a packet of the flow under test, or a cross
#: packet's admission time.
QueueItem = Union[Packet, float]


class DropTailQueue:
    """Fixed-capacity FIFO queue with tail drops.

    Parameters
    ----------
    capacity_packets:
        Maximum number of packets held (the paper fixes the bottleneck
        buffer size; the default of 60 packets is roughly 1.5x the
        bandwidth-delay product of the paper's 12 Mbps / 40 ms RTT setup).
    sample_depth:
        Record a (time, depth) sample per enqueue/dequeue/drop.  Disabled by
        fuzzing runs (``record_series=False``), which never read the series.
    """

    __slots__ = (
        "capacity",
        "_queue",
        "_on_enqueue",
        "drops",
        "_sample_depth",
        "_depth_times",
        "_depth_values",
    )

    def __init__(self, capacity_packets: int = 60, sample_depth: bool = True) -> None:
        if capacity_packets <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity = capacity_packets
        self._queue: Deque[QueueItem] = deque()
        self._on_enqueue: Optional[Callable[[float], None]] = None
        self.drops: Dict[str, int] = {}
        self._sample_depth = sample_depth
        self._depth_times: List[float] = []
        self._depth_values: List[int] = []

    def set_enqueue_callback(self, callback: Callable[[float], None]) -> None:
        """Install the callback fired as ``callback(now)`` on each successful
        enqueue; a fixed-rate link uses it to kick service when idle."""
        self._on_enqueue = callback

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def depth_samples(self) -> List[Tuple[float, int]]:
        """(time, depth) samples, one per enqueue/dequeue/drop."""
        return list(zip(self._depth_times, self._depth_values))

    def enqueue(self, packet: Packet, now: float) -> bool:
        """Attempt to admit ``packet`` of the flow under test at time ``now``.

        Returns ``True`` if admitted, ``False`` if tail-dropped.
        """
        queue = self._queue
        admitted = len(queue) < self.capacity
        if admitted:
            packet.enqueue_time = now
            queue.append(packet)
            if self._on_enqueue is not None:
                self._on_enqueue(now)
        else:
            self.drops[CCA_FLOW] = self.drops.get(CCA_FLOW, 0) + 1
        if self._sample_depth:
            self._depth_times.append(now)
            self._depth_values.append(len(queue))
        return admitted

    def admit_cross(self, now: float) -> None:
        """A cross packet arrives at ``now``: queued as that time, or tail-dropped."""
        queue = self._queue
        if len(queue) < self.capacity:
            queue.append(now)
            if self._on_enqueue is not None:
                self._on_enqueue(now)
        else:
            self.drops[CROSS_FLOW] = self.drops.get(CROSS_FLOW, 0) + 1
        if self._sample_depth:
            self._depth_times.append(now)
            self._depth_values.append(len(queue))

    def dequeue(self, now: float) -> Optional[QueueItem]:
        """Remove and return the head-of-line item, or ``None`` if empty."""
        queue = self._queue
        if not queue:
            return None
        item = queue.popleft()
        if self._sample_depth:
            self._depth_times.append(now)
            self._depth_values.append(len(queue))
        return item
