"""Packet types used by the simulator.

Data flows at segment granularity: every data packet carries exactly one
MSS-sized segment identified by an integer sequence number.  This mirrors the
packet-train abstraction used by the paper's NS3 setup (and by MahiMahi),
where the unit of link service is one MTU-sized packet.  So the packet size
is one constant, :data:`MSS_BYTES`: every Mbps <-> packets conversion reads
it, and nothing (config, trace, generator, sender) can set another.

``Packet`` and ``AckPacket`` are ``__slots__`` classes with hand-written
constructors: tens of thousands are created per simulation, so the per-object
dict and the dataclass ``__init__`` machinery both show up in profiles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Tuple

#: The size in bytes of every packet the simulator carries (one Ethernet
#: MTU): the one packet size, so a rate in Mbps converts to packets with it.
MSS_BYTES = 1500

#: Flow identifier of the congestion-controlled flow under test: every
#: :class:`Packet` belongs to it.
CCA_FLOW = "cca"

#: Flow identifier of the adversarial cross traffic, which is no
#: :class:`Packet`: the gateway queue holds each one as its admission time.
CROSS_FLOW = "cross"

_packet_ids = itertools.count()
_next_packet_id = _packet_ids.__next__


class Packet:
    """A data packet of the flow under test traversing the bottleneck.

    Attributes
    ----------
    seq:
        Segment sequence number (segment index, not a byte offset).
    is_retransmit:
        True when this packet is a TCP retransmission.
    enqueue_time:
        Stamped by the gateway queue on admission; used for queueing-delay
        accounting.
    dequeue_time:
        Stamped by the bottleneck link when it serves the packet.
    """

    __slots__ = (
        "seq",
        "is_retransmit",
        "sent_time",
        "enqueue_time",
        "dequeue_time",
        "packet_id",
    )

    def __init__(self, seq: int, is_retransmit: bool, sent_time: float) -> None:
        self.seq = seq
        self.is_retransmit = is_retransmit
        self.sent_time = sent_time
        self.enqueue_time: Optional[float] = None
        self.dequeue_time: Optional[float] = None
        self.packet_id = _next_packet_id()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "retx" if self.is_retransmit else "data"
        return f"Packet({self.seq} {kind} @{self.sent_time:.4f})"


class SackBlock:
    """A single SACK block covering segments ``start`` .. ``end - 1``.

    Immutable by convention; blocks are created per out-of-order arrival and
    per SACK-list prune, so this is a plain ``__slots__`` class rather than a
    frozen dataclass (whose ``object.__setattr__`` construction is several
    times slower).
    """

    __slots__ = ("start", "end")

    def __init__(self, start: int, end: int) -> None:
        if end <= start:
            raise ValueError(f"empty or inverted SACK block [{start}, {end})")
        self.start = start
        self.end = end

    def __contains__(self, seq: int) -> bool:
        return self.start <= seq < self.end

    def __len__(self) -> int:
        return self.end - self.start

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SackBlock):
            return self.start == other.start and self.end == other.end
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.start, self.end))

    def __repr__(self) -> str:
        return f"SackBlock(start={self.start}, end={self.end})"


class AckPacket:
    """An acknowledgement travelling from the receiver back to the sender.

    Attributes
    ----------
    cumulative_ack:
        The next sequence number the receiver expects (all segments below it
        have been received in order).
    sack_blocks:
        Up to three SACK blocks describing out-of-order data, most recently
        received block first (mirroring Linux behaviour).
    ack_count:
        Number of data segments this ACK acknowledges receipt of since the
        previous ACK (>= 1; 2 when a delayed ACK covers two segments).
    """

    __slots__ = ("cumulative_ack", "sack_blocks", "ack_count", "sent_time")

    def __init__(
        self,
        cumulative_ack: int,
        sack_blocks: Tuple[SackBlock, ...],
        ack_count: int,
        sent_time: float,
    ) -> None:
        self.cumulative_ack = cumulative_ack
        self.sack_blocks = sack_blocks
        self.ack_count = ack_count
        self.sent_time = sent_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        blocks = ",".join(f"[{b.start},{b.end})" for b in self.sack_blocks)
        return f"Ack(cum={self.cumulative_ack} sack={blocks})"
