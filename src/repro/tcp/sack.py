"""SACK scoreboard (RFC 6675).

The scoreboard tracks per-segment state on the sender: which segments have
been selectively acknowledged, which are presumed lost, how often each has
been (re)transmitted, and the rate-sampling stamps of the most recent
transmission.  Loss detection is RFC 6675's: a segment is presumed lost once
``DUPTHRESH`` segments above it have been SACKed.  A retransmission is never
re-marked lost by SACKs (as in NS3 and pre-RACK Linux): a lost retransmission
waits for the RTO, and the RTO marks every outstanding un-SACKed segment lost
(Linux) — the behaviour that produces the spurious retransmissions BBR trips
over (paper section 4.1).  Whether a retransmission was spurious is not the
scoreboard's call: the receiver counts the duplicates that arrive.

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

``detect_losses`` reads its cutoff (the ``DUPTHRESH``-th largest SACKed seq)
off the last ranges; every first transmission below it is lost, which is one
bisect and one slice.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..netsim.packet import SackBlock
from .rate_sampler import SegmentTxState

#: SACKed segments above a hole that mark it lost (RFC 6675's DupThresh).
DUPTHRESH = 3


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

    def __init__(self) -> None:
        self.segments: Dict[int, SegmentState] = {}
        self.snd_una = 0          #: lowest unacknowledged sequence number

        self._pipe = 0                        #: outstanding segments
        self._sack_starts: List[int] = []     #: SACKed ranges [start, end) above snd_una
        self._sack_ends: List[int] = []
        self._first_tx: List[int] = []        #: outstanding, sent once
        self._retx: List[int] = []            #: outstanding, retransmitted
        self._lost_unsent: List[int] = []     #: marked lost, awaiting retransmission
        # Set when new SACK information arrives; ``detect_losses`` is a no-op
        # otherwise (new first transmissions are always above the SACK
        # frontier), so most ACKs skip it.
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

    def apply_sack_blocks(self, blocks: Iterable[SackBlock]) -> List[SegmentState]:
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
                    state.sacked = True
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
            self._detect_dirty = True
        return newly_sacked

    # ------------------------------------------------------------------ #
    # Loss detection
    # ------------------------------------------------------------------ #

    def detect_losses(self) -> List[SegmentState]:
        """RFC 6675 detection: mark un-SACKed first transmissions below the
        ``DUPTHRESH``-th largest SACKed seq lost.  Retransmissions are left to
        the RTO (NS3 / pre-RACK Linux, the behaviour the paper's findings
        depend on)."""
        if not self._detect_dirty:
            return []
        self._detect_dirty = False
        # ``DUPTHRESH`` SACKs lie above an un-SACKed seq exactly when it is
        # below the DUPTHRESH-th largest SACKed seq: walk back to that one.
        starts, ends = self._sack_starts, self._sack_ends
        need = DUPTHRESH
        index = len(ends)
        while True:
            if not index:
                return []  # fewer than DUPTHRESH SACKed segments
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
