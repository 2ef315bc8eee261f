"""Unit tests for the TCP receiver (cumulative ACKs, SACK, delayed ACKs)."""

from __future__ import annotations

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from repro.netsim.engine import EventScheduler
from repro.netsim.packet import Packet, SackBlock
from repro.tcp.receiver import TcpReceiver


def make_receiver(delayed_ack: bool = True, delack_timeout: float = 0.040):
    scheduler = EventScheduler()
    acks = []
    receiver = TcpReceiver(
        scheduler, send_ack=acks.append, delayed_ack=delayed_ack, delack_timeout=delack_timeout
    )
    return scheduler, receiver, acks


def segment(seq: int) -> Packet:
    return Packet(seq=seq)


class TestInOrderDelivery:
    def test_cumulative_ack_advances(self):
        scheduler, receiver, acks = make_receiver(delayed_ack=False)
        for seq in range(3):
            receiver.on_segment(segment(seq))
        assert acks[-1].cumulative_ack == 3
        assert receiver.rcv_next == 3

    def test_immediate_ack_per_segment_when_delack_disabled(self):
        scheduler, receiver, acks = make_receiver(delayed_ack=False)
        for seq in range(4):
            receiver.on_segment(segment(seq))
        assert len(acks) == 4

    def test_delayed_ack_coalesces_pairs(self):
        scheduler, receiver, acks = make_receiver(delayed_ack=True)
        for seq in range(4):
            receiver.on_segment(segment(seq))
        # Two ACKs for four segments (one per pair).
        assert len(acks) == 2
        assert acks[-1].cumulative_ack == 4
        assert acks[-1].ack_count == 2

    def test_delack_timer_flushes_single_segment(self):
        scheduler, receiver, acks = make_receiver(delayed_ack=True, delack_timeout=0.04)
        receiver.on_segment(segment(0))
        assert acks == []
        scheduler.run(until=0.1)
        assert len(acks) == 1
        assert acks[0].cumulative_ack == 1


class TestOutOfOrderDelivery:
    def test_gap_triggers_immediate_duplicate_ack_with_sack(self):
        scheduler, receiver, acks = make_receiver()
        receiver.on_segment(segment(0))
        receiver.on_segment(segment(1))
        receiver.on_segment(segment(3))      # hole at 2
        ack = acks[-1]
        assert ack.cumulative_ack == 2
        assert any(3 in block for block in ack.sack_blocks)

    def test_hole_fill_advances_over_buffered_data(self):
        scheduler, receiver, acks = make_receiver(delayed_ack=False)
        receiver.on_segment(segment(0))
        receiver.on_segment(segment(2))
        receiver.on_segment(segment(3))
        receiver.on_segment(segment(1))      # fills the hole
        assert acks[-1].cumulative_ack == 4
        assert receiver.out_of_order_segments == ()

    def test_sack_blocks_merge_adjacent_segments(self):
        scheduler, receiver, acks = make_receiver()
        receiver.on_segment(segment(0))
        for seq in [5, 6, 7]:
            receiver.on_segment(segment(seq))
        blocks = acks[-1].sack_blocks
        assert any(block.start == 5 and block.end == 8 for block in blocks)

    def test_at_most_three_sack_blocks_reported(self):
        scheduler, receiver, acks = make_receiver()
        receiver.on_segment(segment(0))
        for seq in [2, 4, 6, 8, 10]:          # five separate holes above rcv_next
            receiver.on_segment(segment(seq))
        assert len(acks[-1].sack_blocks) <= 3

    def test_most_recent_block_listed_first(self):
        scheduler, receiver, acks = make_receiver()
        receiver.on_segment(segment(0))
        receiver.on_segment(segment(3))
        receiver.on_segment(segment(6))
        first_block = acks[-1].sack_blocks[0]
        assert 6 in first_block

    def test_duplicate_segment_triggers_ack(self):
        scheduler, receiver, acks = make_receiver(delayed_ack=False)
        receiver.on_segment(segment(0))
        count_before = len(acks)
        receiver.on_segment(segment(0))
        assert len(acks) == count_before + 1
        assert receiver.duplicate_segments == 1

    def test_sack_blocks_pruned_after_cumulative_advance(self):
        scheduler, receiver, acks = make_receiver(delayed_ack=False)
        receiver.on_segment(segment(1))      # hole at 0
        receiver.on_segment(segment(0))      # fill it
        assert acks[-1].cumulative_ack == 2
        assert acks[-1].sack_blocks == ()


# --------------------------------------------------------------------------- #
# Oracle: TcpReceiver against the rebuild-every-block receiver
# --------------------------------------------------------------------------- #


class ReferenceReceiver(TcpReceiver):
    """What ``TcpReceiver``'s block upkeep claims to be equivalent to: every
    out-of-order arrival rebuilds the list around the merged block, and every
    in-order arrival re-clips every block to ``rcv_next``."""

    def on_segment(self, packet: Packet) -> None:
        now, seq = self.scheduler.now, packet.seq
        if seq < self.rcv_next or seq in self._out_of_order:
            self._emit_ack(now)
        elif seq == self.rcv_next:
            self.rcv_next += 1
            while self.rcv_next in self._out_of_order:
                self._out_of_order.discard(self.rcv_next)
                self.rcv_next += 1
            self._prune_sack_blocks()
            self._pending_segments += 1
            if not self.delayed_ack or self._pending_segments >= 2 or self._out_of_order:
                self._emit_ack(now)
            else:
                self._arm_delack(now)
        else:
            self._out_of_order.add(seq)
            self._record_sack_block(seq)
            self._emit_ack(now)

    def _record_sack_block(self, seq: int) -> None:
        start, end, remaining = seq, seq + 1, []
        for block in self._recent_blocks:
            if block.end >= start and block.start <= end:
                start, end = min(start, block.start), max(end, block.end)
            else:
                remaining.append(block)
        self._recent_blocks = [SackBlock(start, end)] + remaining

    def _prune_sack_blocks(self) -> None:
        self._recent_blocks = [
            SackBlock(max(block.start, self.rcv_next), block.end)
            for block in self._recent_blocks
            if block.end > self.rcv_next
        ]


class GrowsNewestWithoutJoinReceiver(TcpReceiver):
    """Seeded bug: the fast path grows the newest block without checking
    whether ``seq + 1`` is buffered too, so two blocks it joins stay apart."""

    def _record_sack_block(self, seq: int) -> None:
        blocks = self._recent_blocks
        if seq - 1 in self._out_of_order and blocks[0].end == seq:
            blocks[0] = SackBlock(blocks[0].start, seq + 1)
        else:
            super()._record_sack_block(seq)


@st.composite
def arrivals(draw):
    """Seqs 0-40 reordered by a random jitter, a few never arriving (gaps that
    never fill) and a few arriving twice, each after a delay long enough or
    not for the delayed-ACK timer to fire."""
    jitter = draw(st.lists(st.integers(0, 12), min_size=41, max_size=41))
    dropped = draw(st.sets(st.integers(0, 40), max_size=4))
    order = sorted(range(41), key=lambda seq: seq + jitter[seq])
    seqs = [seq for seq in order if seq not in dropped]
    repeats = draw(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=6))
    for position, seq in repeats:
        seqs.insert(position, seq)
    delays = draw(
        st.lists(st.sampled_from([0.0, 0.01, 0.05]), min_size=len(seqs), max_size=len(seqs))
    )
    return list(zip(seqs, delays))


PROGRAM = st.tuples(arrivals(), st.booleans())


def run_arrivals(receiver_class, program):
    """Every ACK emitted as ``(cumulative_ack, blocks, ack_count)``, and the
    receiver's ``sack_blocks`` after each arrival."""
    schedule, delayed_ack = program
    scheduler = EventScheduler()
    acks = []
    receiver = receiver_class(scheduler, send_ack=acks.append, delayed_ack=delayed_ack)
    blocks_after = []
    now = 0.0
    for seq, delay in schedule:
        now += delay
        scheduler.run(until=now)
        receiver.on_segment(segment(seq))
        blocks_after.append(receiver.sack_blocks)
    scheduler.run(until=now + 1.0)
    emitted = [(ack.cumulative_ack, ack.sack_blocks, ack.ack_count) for ack in acks]
    return emitted, blocks_after


@settings(max_examples=300, deadline=None)
@given(program=PROGRAM)
def test_receiver_matches_rebuild_every_block_reference(program):
    """Reordered, gapped and duplicated arrivals, delayed ACK on and off: the
    same ACKs (SACK blocks in recency order included) and the same block list
    after every arrival."""
    assert run_arrivals(TcpReceiver, program) == run_arrivals(ReferenceReceiver, program)


def test_reference_property_catches_a_seeded_join_bug():
    find(
        PROGRAM,
        lambda program: run_arrivals(GrowsNewestWithoutJoinReceiver, program)
        != run_arrivals(ReferenceReceiver, program),
        settings=settings(
            max_examples=2000, derandomize=True, database=None, phases=(Phase.generate,)
        ),
    )
