"""Drop-tail FIFO gateway queue.

The paper's network model (section 3.1) uses a single gateway with a
fixed-size drop-tail FIFO queue shared by the flow under test and the cross
traffic.  This module holds that queue's state: the FIFO, its capacity,
per-flow drop counts and optional depth samples for analysis.

The FIFO holds :class:`~repro.netsim.packet.Packet`s of the flow under test
and cross admission times: cross traffic is open-loop and only counted at
the sink, so a cross packet's admission time is all there is to it.  The
bottleneck link is the queue's one writer: :meth:`repro.netsim.link.Link.admit`
offers it packets of the flow under test, and the link's own event loop
(:meth:`repro.netsim.link.Link.run_events`) admits cross arrivals and serves
the head of line.  Each admission, tail drop and service takes one depth
sample.

Depth samples are kept in two parallel columns (times, depths) because one
sample is taken per enqueue/dequeue/drop — building a tuple for each was a
measurable slice of the per-packet cost.  ``depth_samples`` materialises the
``(time, depth)`` pairs on demand.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Tuple, Union

from .packet import Packet

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
        self.drops: Dict[str, int] = {}
        self._sample_depth = sample_depth
        self._depth_times: List[float] = []
        self._depth_values: List[int] = []

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def depth_samples(self) -> List[Tuple[float, int]]:
        """(time, depth) samples, one per enqueue/dequeue/drop."""
        return list(zip(self._depth_times, self._depth_values))
