"""TCP receiver with cumulative ACKs, SACK generation and delayed ACKs.

The receiver mirrors the Linux defaults the paper enables (section 4):
TCP-SACK and delayed ACKs.  Delayed ACKs matter twice over in the paper's
findings: they lengthen the ACK-side rate-sample interval, which deepens
BBR's bandwidth-estimate collapse, and they shape the feedback loop that
keeps a stalled BBR stalled.

The SACK blocks are exactly the maximal runs of buffered out-of-order
segments, most recently extended first (the first ``max_sack_blocks`` go on
the wire).  So a new out-of-order segment touches a block only when its
neighbour is buffered — two set lookups decide.  Extending the newest block
replaces ``_recent_blocks[0]`` and a new island is one ``insert(0, …)``;
only extending an older block, or joining two, searches the list.  An
in-order arrival that pulls buffered segments across removes the one block
it consumed.  Blocks are replaced, never mutated: ACKs in flight hold them.
"""

from __future__ import annotations

from typing import Callable, List, Set, Tuple

from ..netsim.engine import EventScheduler
from ..netsim.packet import AckPacket, Packet, SackBlock

AckSendCallback = Callable[[AckPacket], None]


class TcpReceiver:
    """Receives data segments and emits (possibly delayed) ACKs.

    Parameters
    ----------
    scheduler:
        The simulation event scheduler.
    send_ack:
        Callback used to hand a generated :class:`AckPacket` to the return
        path.
    delayed_ack:
        Enable the delayed-ACK algorithm (ACK every second segment, or after
        ``delack_timeout`` if only one segment is pending).
    delack_timeout:
        Delayed-ACK timer, 40 ms by default (the common Linux value).
    max_sack_blocks:
        Number of SACK blocks reported per ACK (3, as in practice with
        timestamps enabled).
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        send_ack: AckSendCallback,
        delayed_ack: bool = True,
        delack_timeout: float = 0.040,
        max_sack_blocks: int = 3,
    ) -> None:
        self.scheduler = scheduler
        self.send_ack = send_ack
        self.delayed_ack = delayed_ack
        self.delack_timeout = delack_timeout
        self.max_sack_blocks = max_sack_blocks

        self.rcv_next = 0
        self._out_of_order: Set[int] = set()
        self._recent_blocks: List[SackBlock] = []
        self._pending_segments = 0
        # Delayed-ACK timer: armed per single pending segment and cancelled
        # by the next ACK emission, so it is a LazyTimer (deadline update
        # instead of a cancellable heap event per arm/cancel cycle).
        self._delack_timer = scheduler.timer(self._delack_fire)

        self.segments_received = 0
        self.acks_sent = 0
        self.duplicate_segments = 0

    # ------------------------------------------------------------------ #
    # Data path
    # ------------------------------------------------------------------ #

    def on_segment(self, packet: Packet) -> None:
        """Process an arriving data segment."""
        now = self.scheduler.now
        seq = packet.seq
        self.segments_received += 1

        if seq < self.rcv_next or seq in self._out_of_order:
            # Duplicate (e.g. a spurious retransmission): ACK immediately so
            # the sender learns its state is stale.
            self.duplicate_segments += 1
            self._emit_ack(now)
            return

        if seq == self.rcv_next:
            rcv_next = seq + 1
            out_of_order = self._out_of_order
            if rcv_next in out_of_order:
                # Pull the buffered run across: it was a block.
                first = rcv_next
                while rcv_next in out_of_order:
                    out_of_order.discard(rcv_next)
                    rcv_next += 1
                blocks = self._recent_blocks
                del blocks[next(i for i, b in enumerate(blocks) if b.start == first)]
            self.rcv_next = rcv_next
            self._pending_segments += 1
            if not self.delayed_ack or self._pending_segments >= 2 or out_of_order:
                self._emit_ack(now)
            else:
                self._arm_delack(now)
            return

        # Out-of-order arrival: buffer, record the SACK block, ACK at once.
        self._out_of_order.add(seq)
        self._record_sack_block(seq)
        self._emit_ack(now)

    # ------------------------------------------------------------------ #
    # ACK generation
    # ------------------------------------------------------------------ #

    def _emit_ack(self, now: float) -> None:
        self._delack_timer.disarm()
        blocks = self._recent_blocks
        pending = self._pending_segments
        ack = AckPacket(
            self.rcv_next,
            tuple(blocks[: self.max_sack_blocks]) if blocks else (),
            pending if pending > 1 else 1,
            now,
        )
        self._pending_segments = 0
        self.acks_sent += 1
        self.send_ack(ack)

    def _arm_delack(self, now: float) -> None:
        if self._delack_timer._deadline is not None:
            return
        self._delack_timer.arm(now + self.delack_timeout)

    def _delack_fire(self) -> None:
        if self._pending_segments > 0:
            self._emit_ack(self.scheduler.now)

    # ------------------------------------------------------------------ #
    # SACK block maintenance
    # ------------------------------------------------------------------ #

    def _record_sack_block(self, seq: int) -> None:
        """Fold the newly buffered ``seq`` into the blocks (most recent first)."""
        out_of_order = self._out_of_order
        blocks = self._recent_blocks
        start, end = seq, seq + 1
        if seq - 1 in out_of_order:
            if end not in out_of_order and blocks[0].end == seq:
                blocks[0] = SackBlock(blocks[0].start, end)
                return
            start = blocks.pop(next(i for i, b in enumerate(blocks) if b.end == seq)).start
        if end in out_of_order:
            end = blocks.pop(next(i for i, b in enumerate(blocks) if b.start == end)).end
        blocks.insert(0, SackBlock(start, end))

    # ------------------------------------------------------------------ #
    # Introspection helpers (used by tests)
    # ------------------------------------------------------------------ #

    @property
    def out_of_order_segments(self) -> Tuple[int, ...]:
        return tuple(sorted(self._out_of_order))

    @property
    def sack_blocks(self) -> Tuple[SackBlock, ...]:
        return tuple(self._recent_blocks)
