"""SACK scoreboard.

The scoreboard tracks per-segment state on the sender: which segments have
been selectively acknowledged, which are presumed lost, how often each has
been (re)transmitted, and the rate-sampling stamps of the most recent
transmission.  Loss detection follows the standard SACK heuristic (a segment
is presumed lost once ``dupthresh`` segments above it have been SACKed,
RFC 6675) plus Linux's RTO behaviour of marking every outstanding un-SACKed
segment lost — the behaviour that produces the spurious retransmissions BBR
trips over (paper section 4.1).

Every sent segment at or above ``snd_una`` is in exactly one of four states,
and three of them have an ascending index, so an ACK costs what it changes —
even on adversarial traces that pin ``snd_una`` for seconds while thousands
of segments pile up above the hole:

* *SACKed*: ``_sack_starts`` / ``_sack_ends``, sorted, disjoint and
  non-adjacent half-open ranges.  A block re-reporting a covered range (most
  of them: every ACK repeats up to three) costs one bisect and one compare.
  A newly SACKed run costs its own segments plus one slice assignment that
  merges it into its neighbours; the cumulative ACK trims the front.
* *outstanding* (sent, undelivered, not presumed lost): ``_first_tx`` for
  segments sent once, ``_retx`` for retransmissions.  New data is sent in
  order, so a first transmission is an append.
* *lost, awaiting retransmission*: ``_lost_unsent``; its head is the next
  retransmission.
* *cumulatively ACKed*: below ``snd_una``, indexed by nothing.

``detect_losses`` reads its cutoff (the ``dupthresh``-th largest SACKed seq)
off the last ranges; every first transmission below it is lost, which is one
bisect and one slice.  Retransmissions are only re-examined when
``redetect_lost_retransmissions`` asks for it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..netsim.packet import SackBlock
from .rate_sampler import SegmentTxState


@dataclass(slots=True)
class SegmentState:
    """Sender-side state for one segment."""

    seq: int
    transmissions: int = 0
    tx_state: Optional[SegmentTxState] = None
    last_sent_time: Optional[float] = None
    outstanding: bool = False
    sacked: bool = False
    lost: bool = False
    acked: bool = False


def _discard(index: List[int], seq: int) -> None:
    """Remove ``seq`` from an ascending index holding it (the head without a search)."""
    if index[0] == seq:
        del index[0]
    else:
        del index[bisect.bisect_left(index, seq)]


class SackScoreboard:
    """Per-connection scoreboard of all sent-but-not-cumulatively-ACKed segments."""

    def __init__(
        self,
        dupthresh: int = 3,
        redetect_lost_retransmissions: bool = False,
        spurious_rtt_floor: float = 0.035,
    ) -> None:
        self.dupthresh = dupthresh
        #: A (S)ACK delivering a retransmitted segment sooner than this after
        #: its latest transmission must refer to an earlier copy, so the
        #: latest retransmission was spurious.  The default sits just below
        #: the minimum possible RTT of the paper's topology (2 x 20 ms).
        self.spurious_rtt_floor = spurious_rtt_floor
        #: When False (default, matching NS3 and pre-RACK Linux — the
        #: behaviour the paper's findings rely on), a retransmission that is
        #: itself lost is only recovered by the retransmission timeout.  When
        #: True, RACK-style evidence (a SACK for data sent after the
        #: retransmission) re-marks it lost so it can be retransmitted again.
        self.redetect_lost_retransmissions = redetect_lost_retransmissions
        self.segments: Dict[int, SegmentState] = {}
        self.snd_una = 0          #: lowest unacknowledged sequence number
        self.spurious_retransmissions = 0

        self._pipe = 0                        #: outstanding segments
        self._sack_starts: List[int] = []     #: SACKed ranges [start, end) above snd_una
        self._sack_ends: List[int] = []
        self._first_tx: List[int] = []        #: outstanding, sent once
        self._retx: List[int] = []            #: outstanding, retransmitted
        self._lost_unsent: List[int] = []     #: marked lost, awaiting retransmission
        self._latest_sacked_send = 0.0        #: newest send time among SACKed segments
        # Set when new SACK information arrives; ``detect_losses`` is a no-op
        # otherwise (new first transmissions are always above the SACK
        # frontier, and retransmissions sent after the newest SACK can never
        # satisfy the RACK-style ordering check), so most ACKs skip it.
        self._detect_dirty = False

    # ------------------------------------------------------------------ #
    # Transmission bookkeeping
    # ------------------------------------------------------------------ #

    def on_transmit(self, seq: int, now: float, tx_state: SegmentTxState) -> SegmentState:
        """Record a transmission of ``seq`` and return its state: new data, or
        a retransmission of a segment marked lost (``next_lost_segment``)."""
        segments = self.segments
        state = segments.get(seq)
        if state is None:
            state = segments[seq] = SegmentState(seq, 1, tx_state, now, True)  # outstanding
            first_tx = self._first_tx
            if first_tx and seq < first_tx[-1]:
                bisect.insort(first_tx, seq)
            else:
                first_tx.append(seq)
            self._pipe += 1
            return state
        state.transmissions += 1
        state.tx_state = tx_state
        state.last_sent_time = now
        if state.lost:
            state.lost = False
            state.outstanding = True
            _discard(self._lost_unsent, seq)
            bisect.insort(self._retx, seq)
            self._pipe += 1
        return state

    # ------------------------------------------------------------------ #
    # ACK processing
    # ------------------------------------------------------------------ #

    def apply_cumulative_ack(
        self, cumulative_ack: int
    ) -> Tuple[List[SegmentState], List[SegmentState]]:
        """Advance ``snd_una``.

        Returns ``(newly_delivered, newly_full_acked)``:

        * ``newly_delivered`` — segments that had never been delivered before
          (not previously SACKed); this is what rate sampling counts, matching
          Linux's ``tp->delivered`` which increments once per segment.
        * ``newly_full_acked`` — every segment newly covered by the cumulative
          ACK, including previously-SACKed ones; this is the ``acked`` count
          the window-growth callbacks see (Linux ``tcp_clean_rtx_queue`` /
          NS3 ``segsAcked``), and it is what makes the post-RTO cumulative
          jump large in the CUBIC finding (section 4.2).
        """
        newly_delivered: List[SegmentState] = []
        newly_full_acked: List[SegmentState] = []
        if cumulative_ack <= self.snd_una:
            return newly_delivered, newly_full_acked
        segments = self.segments
        pipe = self._pipe
        for seq in range(self.snd_una, cumulative_ack):
            state = segments.get(seq)
            if state is None:
                # Segment was never sent (should not happen for a valid ACK)
                # but tolerate it so a buggy receiver cannot wedge the sender.
                continue
            newly_full_acked.append(state)
            if not state.sacked:
                newly_delivered.append(state)
                if state.outstanding:
                    state.outstanding = False
                    pipe -= 1
                state.lost = False
            state.acked = True
        self._pipe = pipe
        self.snd_una = cumulative_ack
        # Everything below the cumulative ACK leaves every index in one cut.
        for index in (self._first_tx, self._retx, self._lost_unsent):
            if index and index[0] < cumulative_ack:
                del index[: bisect.bisect_left(index, cumulative_ack)]
        starts, ends = self._sack_starts, self._sack_ends
        if starts and starts[0] < cumulative_ack:
            cut = bisect.bisect_right(ends, cumulative_ack)
            del starts[:cut], ends[:cut]
            if starts and starts[0] < cumulative_ack:
                starts[0] = cumulative_ack
        return newly_delivered, newly_full_acked

    def apply_sack_blocks(
        self, blocks: Iterable[SackBlock], now: Optional[float] = None
    ) -> List[SegmentState]:
        """Mark segments covered by ``blocks`` as SACKed; return newly SACKed states.

        The walk visits only the gaps between the SACKed ranges, so a block
        costs O(log n + newly SACKed).  Sent seqs above ``snd_una`` are
        contiguous, so a block reaching past the highest sent seq (a
        misbehaving receiver) is cut there.
        """
        newly_sacked: List[SegmentState] = []
        starts, ends = self._sack_starts, self._sack_ends
        segments = self.segments
        snd_una = self.snd_una
        pipe = self._pipe
        latest = self._latest_sacked_send
        for block in blocks:
            seq = block.start if block.start > snd_una else snd_una
            end = block.end
            k = bisect.bisect_right(starts, seq)  # ranges [:k] start at or below seq
            if k and ends[k - 1] >= end or seq >= end:
                continue  # re-reported (already covered), or below snd_una
            if k and ends[k - 1] > seq:
                seq = ends[k - 1]
            low = seq
            while seq < end:
                stop = starts[k] if k < len(starts) and starts[k] < end else end
                while seq < stop:
                    state = segments.get(seq)
                    if state is None:
                        stop = end = seq  # never sent
                        break
                    if state.outstanding:
                        state.outstanding = False
                        pipe -= 1
                        _discard(self._retx if state.transmissions > 1 else self._first_tx, seq)
                    else:
                        state.lost = False
                        _discard(self._lost_unsent, seq)
                    sent = state.last_sent_time
                    if state.transmissions > 1 and now is not None:
                        # Delivered sooner after the latest retransmission than
                        # a round trip allows means an earlier copy arrived: that
                        # retransmission was spurious (the Fig. 4c situation).
                        self.spurious_retransmissions += now - sent < self.spurious_rtt_floor
                    state.sacked = True
                    if sent > latest:
                        latest = sent
                    newly_sacked.append(state)
                    seq += 1
                if stop < end:
                    seq = ends[k]
                    k += 1
            if low < seq:
                # [low, seq) is all SACKed now: fold it and every range it
                # overlaps or touches into one.
                i = bisect.bisect_left(ends, low)
                j = bisect.bisect_right(starts, seq)
                if i < j:
                    low = min(low, starts[i])
                    seq = max(seq, ends[j - 1])
                starts[i:j] = [low]
                ends[i:j] = [seq]
        if newly_sacked:
            self._pipe = pipe
            self._latest_sacked_send = latest
            self._detect_dirty = True
        return newly_sacked

    # ------------------------------------------------------------------ #
    # Loss detection
    # ------------------------------------------------------------------ #

    def detect_losses(self) -> List[SegmentState]:
        """RFC 6675 style detection: mark un-SACKed holes below recent SACKs lost.

        A segment that has already been retransmitted is only re-marked lost
        when ``redetect_lost_retransmissions`` is enabled *and* there is fresh
        evidence that the retransmission itself was lost — a SACK for data
        sent after the retransmission (RACK-style ordering).  The default
        matches NS3 / pre-RACK Linux, where a lost retransmission waits for
        the RTO (the behaviour the paper's findings depend on).
        """
        if not self._detect_dirty:
            return []
        self._detect_dirty = False
        # ``dupthresh`` SACKs lie above an un-SACKed seq exactly when it is
        # below the dupthresh-th largest SACKed seq: walk back to that one.
        starts, ends = self._sack_starts, self._sack_ends
        need = self.dupthresh
        index = len(ends)
        while True:
            if not index:
                return []  # fewer than dupthresh SACKed segments
            index -= 1
            width = ends[index] - starts[index]
            if width >= need:
                break
            need -= width
        cutoff = ends[index] - need
        first_tx = self._first_tx
        cut = bisect.bisect_left(first_tx, cutoff)
        lost = first_tx[:cut]
        del first_tx[:cut]
        if self.redetect_lost_retransmissions:
            retx = self._retx
            cut = bisect.bisect_left(retx, cutoff)
            latest = self._latest_sacked_send
            keep: List[int] = []
            for seq in retx[:cut]:
                if latest <= self.segments[seq].last_sent_time + 1e-12:
                    keep.append(seq)
                else:
                    lost.append(seq)
            retx[:cut] = keep
            lost.sort()
        return self._mark_lost(lost)

    def mark_all_outstanding_lost(self) -> List[SegmentState]:
        """RTO behaviour: every sent, un-delivered segment is presumed lost."""
        lost = sorted(self._first_tx + self._retx)
        del self._first_tx[:], self._retx[:]
        return self._mark_lost(lost)

    def _mark_lost(self, seqs: List[int]) -> List[SegmentState]:
        """Mark outstanding ``seqs`` (ascending, already off their index) lost."""
        if not seqs:
            return []
        newly_lost = [self.segments[seq] for seq in seqs]
        for state in newly_lost:
            state.outstanding = False
            state.lost = True
        self._pipe -= len(seqs)
        self._lost_unsent.extend(seqs)
        self._lost_unsent.sort()
        return newly_lost

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def next_lost_segment(self) -> Optional[int]:
        """Lowest segment marked lost and not currently outstanding."""
        return self._lost_unsent[0] if self._lost_unsent else None

    def pipe(self) -> int:
        """Packets believed to be in flight (RFC 6675 ``pipe`` analogue)."""
        return self._pipe

    def has_unacked_data(self) -> bool:
        """Whether any sent segment is undelivered: outstanding or lost."""
        return self._pipe > 0 or bool(self._lost_unsent)

    def purge_acked(self, keep_below: int = 0) -> None:
        """Drop fully acknowledged segments below ``snd_una`` to bound memory."""
        threshold = self.snd_una - keep_below
        for seq in [seq for seq in self.segments if seq < threshold]:
            del self.segments[seq]
