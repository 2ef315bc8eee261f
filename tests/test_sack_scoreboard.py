"""Unit tests for the SACK scoreboard and loss detection."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.packet import SackBlock
from repro.tcp.rate_sampler import SegmentTxState
from repro.tcp.sack import DUPTHRESH, SackScoreboard


def tx_state(time: float = 0.0) -> SegmentTxState:
    return SegmentTxState(
        sent_time=time, prior_delivered=0, prior_delivered_time=0.0, first_tx_time=0.0
    )


def send_range(board: SackScoreboard, start: int, end: int, time: float = 0.0) -> None:
    for seq in range(start, end):
        board.on_transmit(seq, time, tx_state(time))


class TestCumulativeAck:
    def test_advances_snd_una_and_reports_delivered(self):
        board = SackScoreboard()
        send_range(board, 0, 5)
        delivered, full_acked = board.apply_cumulative_ack(3)
        assert board.snd_una == 3
        assert [s.seq for s in delivered] == [0, 1, 2]
        assert [s.seq for s in full_acked] == [0, 1, 2]

    def test_previously_sacked_segments_not_redelivered(self):
        board = SackScoreboard()
        send_range(board, 0, 5)
        board.apply_sack_blocks([SackBlock(1, 3)])
        delivered, full_acked = board.apply_cumulative_ack(3)
        assert [s.seq for s in delivered] == [0]
        assert [s.seq for s in full_acked] == [0, 1, 2]

    def test_stale_ack_is_noop(self):
        board = SackScoreboard()
        send_range(board, 0, 3)
        board.apply_cumulative_ack(2)
        delivered, full_acked = board.apply_cumulative_ack(1)
        assert delivered == [] and full_acked == []
        assert board.snd_una == 2


class TestSackProcessing:
    def test_marks_segments_sacked_once(self):
        board = SackScoreboard()
        send_range(board, 0, 10)
        first = board.apply_sack_blocks([SackBlock(4, 7)])
        second = board.apply_sack_blocks([SackBlock(4, 7)])
        assert [s.seq for s in first] == [4, 5, 6]
        assert second == []

    def test_sack_below_snd_una_ignored(self):
        board = SackScoreboard()
        send_range(board, 0, 10)
        board.apply_cumulative_ack(5)
        assert board.apply_sack_blocks([SackBlock(2, 4)]) == []

    def test_pipe_counts_outstanding_only(self):
        board = SackScoreboard()
        send_range(board, 0, 10)
        assert board.pipe() == 10
        board.apply_sack_blocks([SackBlock(5, 10)])
        assert board.pipe() == 5
        board.apply_cumulative_ack(2)
        assert board.pipe() == 3


class TestLossDetection:
    def test_segment_with_three_sacks_above_is_lost(self):
        board = SackScoreboard()
        send_range(board, 0, 10)
        board.apply_sack_blocks([SackBlock(1, 4)])
        lost = board.detect_losses()
        assert [s.seq for s in lost] == [0]

    def test_fewer_than_dupthresh_not_lost(self):
        board = SackScoreboard()
        send_range(board, 0, 10)
        board.apply_sack_blocks([SackBlock(1, 3)])
        assert board.detect_losses() == []

    def test_lost_segment_not_remarked_after_retransmission_by_default(self):
        """NS3/pre-RACK behaviour: a lost retransmission waits for the RTO."""
        board = SackScoreboard()
        send_range(board, 0, 10)
        board.apply_sack_blocks([SackBlock(1, 5)])
        assert [s.seq for s in board.detect_losses()] == [0]
        board.on_transmit(0, 1.0, tx_state(1.0))        # retransmission
        board.apply_sack_blocks([SackBlock(5, 9)])       # more SACK evidence
        assert board.detect_losses() == []

    def test_rto_marks_all_outstanding_lost(self):
        board = SackScoreboard()
        send_range(board, 0, 10)
        board.apply_sack_blocks([SackBlock(4, 6)])
        lost = board.mark_all_outstanding_lost()
        assert {s.seq for s in lost} == {0, 1, 2, 3, 6, 7, 8, 9}
        assert board.pipe() == 0

    def test_next_lost_segment_is_lowest(self):
        board = SackScoreboard()
        send_range(board, 0, 10)
        board.apply_sack_blocks([SackBlock(3, 8)])
        board.detect_losses()
        assert board.next_lost_segment() == 0
        board.on_transmit(0, 1.0, tx_state(1.0))
        assert board.next_lost_segment() in (1, 2)


class TestMemory:
    def test_purge_acked_bounds_memory(self):
        board = SackScoreboard()
        send_range(board, 0, 100)
        board.apply_cumulative_ack(90)
        board.purge_acked(keep_below=5)
        assert all(seq >= 85 for seq in board.segments)
        assert board.has_unacked_data()


# --------------------------------------------------------------------------- #
# Oracle: the incremental indices against a recomputation over ``segments``
# --------------------------------------------------------------------------- #

#: A SACK op is up to three (offset above snd_una, width) blocks; a block may
#: reach one past the highest sent seq, as a misbehaving receiver's would.
#: Offsets stay near the window and programs are long, so multi-range SACK
#: states and detection cutoffs form often enough for seeded off-by-one bugs
#: in the range merge, the cumulative trim or the cutoff to fail it.
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("send"), st.integers(1, 8)),
        st.tuples(st.just("retransmit"), st.integers(1, 3)),
        st.tuples(
            st.just("sack"),
            st.lists(st.tuples(st.integers(0, 12), st.integers(1, 6)), min_size=1, max_size=3),
        ),
        st.tuples(st.just("ack"), st.integers(0, 12)),
        st.tuples(st.just("detect")),
        st.tuples(st.just("rto")),
        st.tuples(st.just("purge"), st.integers(0, 4)),
    ),
    min_size=20,
    max_size=80,
)


def expected_losses(board: SackScoreboard) -> list:
    """RFC 6675 detection, restated over every segment with no index: a first
    transmission with ``DUPTHRESH`` SACKed segments above it."""
    sacked = [s.seq for s in board.segments.values() if s.sacked and not s.acked]
    lost = []
    for seq, state in sorted(board.segments.items()):
        if state.sacked or state.acked or state.lost:
            continue
        if state.transmissions > 1 or sum(1 for other in sacked if other > seq) < DUPTHRESH:
            continue
        lost.append(seq)
    return lost


def maximal_runs(seqs) -> tuple:
    """``(starts, ends)`` of the maximal runs of consecutive ascending ``seqs``."""
    starts, ends = [], []
    for seq in seqs:
        if ends and ends[-1] == seq:
            ends[-1] += 1
        else:
            starts.append(seq)
            ends.append(seq + 1)
    return starts, ends


def assert_indices_match_recomputation(board: SackScoreboard) -> None:
    states = [board.segments[seq] for seq in sorted(board.segments)]
    for s in states:
        # Below snd_una a segment is cumulatively ACKed; at or above it, it is
        # in exactly one of the three indexed states.
        if s.seq < board.snd_una:
            assert s.acked and not (s.outstanding or s.lost)
        else:
            assert not s.acked and s.sacked + s.outstanding + s.lost == 1
    outstanding = [s for s in states if s.outstanding]
    lost = [s.seq for s in states if s.lost]
    assert board._pipe == board.pipe() == len(outstanding)
    assert (board._sack_starts, board._sack_ends) == maximal_runs(
        s.seq for s in states if s.sacked and not s.acked
    )
    assert board._first_tx == [s.seq for s in outstanding if s.transmissions == 1]
    assert board._retx == [s.seq for s in outstanding if s.transmissions > 1]
    assert board._lost_unsent == lost
    assert board.has_unacked_data() == any(not (s.acked or s.sacked) for s in states)
    assert board.next_lost_segment() == (lost[0] if lost else None)


@settings(max_examples=300, deadline=None)
@given(ops=OPS)
def test_incremental_indices_match_recomputation(ops):
    """The ``ReferenceFlowMonitor`` pattern for the scoreboard: drive it as a
    sender would (new data, retransmissions of ``next_lost_segment()``, SACKs,
    cumulative ACKs, loss detection, RTO, purge) and after every step compare
    each incrementally maintained index with what ``segments`` says."""
    board = SackScoreboard()
    next_seq = 0
    now = 0.0
    for op in ops:
        now += 0.01
        kind = op[0]
        if kind == "send":
            for _ in range(op[1]):
                board.on_transmit(next_seq, now, tx_state(now))
                next_seq += 1
        elif kind == "retransmit":
            for _ in range(op[1]):
                seq = board.next_lost_segment()
                if seq is None:
                    break
                state = board.on_transmit(seq, now, tx_state(now))
                assert state.transmissions > 1 and state.outstanding and not state.lost
        elif kind == "sack":
            blocks, expected = [], []
            sacked = {s.seq for s in board.segments.values() if s.sacked}
            for offset, width in op[1]:
                start = board.snd_una + offset
                end = min(start + width, next_seq + 1)
                if start < end:
                    blocks.append(SackBlock(start, end))
                    fresh = [seq for seq in range(start, min(end, next_seq)) if seq not in sacked]
                    expected += fresh
                    sacked.update(fresh)
            newly_sacked = board.apply_sack_blocks(blocks)
            assert [s.seq for s in newly_sacked] == expected
        elif kind == "ack":
            before = board.snd_una
            target = min(before + op[1], next_seq)
            delivered, full_acked = board.apply_cumulative_ack(target)
            assert [s.seq for s in full_acked] == list(range(before, max(before, target)))
            assert all(s.acked for s in full_acked)
            assert {s.seq for s in delivered} <= {s.seq for s in full_acked}
        elif kind == "detect":
            expected = expected_losses(board)
            assert [s.seq for s in board.detect_losses()] == expected
        elif kind == "rto":
            expected = sorted(
                s.seq for s in board.segments.values() if not (s.acked or s.sacked or s.lost)
            )
            assert [s.seq for s in board.mark_all_outstanding_lost()] == expected
        else:
            board.purge_acked(keep_below=op[1])
            assert all(seq >= board.snd_una - op[1] for seq in board.segments)
        assert_indices_match_recomputation(board)
