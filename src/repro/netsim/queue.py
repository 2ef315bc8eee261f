"""Drop-tail FIFO gateway queue.

The paper's network model (section 3.1) uses a single gateway with a
fixed-size drop-tail FIFO queue shared by the flow under test and the cross
traffic.  This module implements exactly that queue, with per-flow drop
accounting and optional depth sampling for analysis.

Depth samples are kept in two parallel columns (times, depths) because one
sample is taken per enqueue/dequeue/drop — building a tuple for each was a
measurable slice of the per-packet cost.  ``depth_samples`` materialises the
``(time, depth)`` pairs on demand.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from .packet import Packet


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
        self._queue: Deque[Packet] = deque()
        self._on_enqueue: Optional[Callable[[Packet, float], None]] = None
        self.drops: Dict[str, int] = {}
        self._sample_depth = sample_depth
        self._depth_times: List[float] = []
        self._depth_values: List[int] = []

    def set_enqueue_callback(self, callback: Callable[[Packet, float], None]) -> None:
        """Install the callback fired as ``callback(packet, now)`` on each
        successful enqueue; the link uses it to kick service when idle."""
        self._on_enqueue = callback

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def depth_samples(self) -> List[Tuple[float, int]]:
        """(time, depth) samples, one per enqueue/dequeue/drop."""
        return list(zip(self._depth_times, self._depth_values))

    def enqueue(self, packet: Packet, now: float) -> bool:
        """Attempt to admit ``packet`` at time ``now``.

        Returns ``True`` if admitted, ``False`` if tail-dropped.
        """
        queue = self._queue
        if len(queue) >= self.capacity:
            flow = packet.flow
            self.drops[flow] = self.drops.get(flow, 0) + 1
            if self._sample_depth:
                self._depth_times.append(now)
                self._depth_values.append(len(queue))
            return False
        packet.enqueue_time = now
        queue.append(packet)
        if self._sample_depth:
            self._depth_times.append(now)
            self._depth_values.append(len(queue))
        if self._on_enqueue is not None:
            self._on_enqueue(packet, now)
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        """Remove and return the head-of-line packet, or ``None`` if empty."""
        queue = self._queue
        if not queue:
            return None
        packet = queue.popleft()
        packet.dequeue_time = now
        if self._sample_depth:
            self._depth_times.append(now)
            self._depth_values.append(len(queue))
        return packet

    def total_drops(self) -> int:
        return sum(self.drops.values())

    def drops_for(self, flow: str) -> int:
        return self.drops.get(flow, 0)
