"""SACK scoreboard.

The scoreboard tracks per-segment state on the sender: which segments have
been selectively acknowledged, which are presumed lost, how often each has
been (re)transmitted, and the rate-sampling stamps of the most recent
transmission.  Loss detection follows the standard SACK heuristic (a segment
is presumed lost once ``dupthresh`` segments above it have been SACKed,
RFC 6675) plus Linux's RTO behaviour of marking every outstanding un-SACKed
segment lost — the behaviour that produces the spurious retransmissions BBR
trips over (paper section 4.1).

All hot-path queries (``pipe``, ``detect_losses``, ``next_lost_segment``) are
maintained incrementally so that ACK processing stays O(changed segments)
even for adversarial traces that keep ``snd_una`` pinned for seconds while
thousands of segments pile up above the hole.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..netsim.packet import SackBlock
from .rate_sampler import SegmentTxState


@dataclass(slots=True)
class SegmentState:
    """Sender-side state for one segment."""

    seq: int
    sacked: bool = False
    lost: bool = False
    acked: bool = False
    outstanding: bool = False
    transmissions: int = 0
    tx_state: Optional[SegmentTxState] = None
    last_sent_time: Optional[float] = None

    @property
    def delivered(self) -> bool:
        return self.acked or self.sacked


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
        self.high_sacked = -1     #: highest SACKed sequence number seen
        self.spurious_retransmissions = 0

        # Incrementally maintained indices (hot-path bookkeeping).
        self._pipe = 0                              #: outstanding, undelivered segments
        self._undelivered: Set[int] = set()         #: sent but not yet (S)ACKed
        self._lost_unsent: List[int] = []           #: sorted seqs marked lost, awaiting retransmit
        self._sacked_sorted: List[int] = []         #: sorted SACKed (not cum-acked) seqs
        self._latest_sacked_send = 0.0              #: newest send time among SACKed segments
        # Loss-detection candidates: sent, undelivered, not currently marked
        # lost.  Kept sorted (plus a membership set) so ``detect_losses`` and
        # ``mark_all_outstanding_lost`` touch only real candidates instead of
        # re-walking — and re-sorting — every undelivered segment per ACK.
        self._candidates_sorted: List[int] = []
        self._candidate_set: Set[int] = set()
        # Set when new SACK information arrives; ``detect_losses`` is a no-op
        # otherwise (new first transmissions are always above the SACK
        # frontier, and retransmissions sent after the newest SACK can never
        # satisfy the RACK-style ordering check), so most ACKs skip the walk.
        self._detect_dirty = False

    # ------------------------------------------------------------------ #
    # Transmission bookkeeping
    # ------------------------------------------------------------------ #

    def on_transmit(self, seq: int, now: float, tx_state: SegmentTxState) -> SegmentState:
        """Record a (re)transmission of ``seq`` and return its state."""
        state = self.segments.get(seq)
        if state is None:
            state = SegmentState(seq)
            self.segments[seq] = state
        state.transmissions += 1
        state.tx_state = tx_state
        state.last_sent_time = now
        delivered = state.acked or state.sacked
        if not state.outstanding and not delivered:
            self._pipe += 1
        state.outstanding = True
        if state.lost:
            state.lost = False
            self._remove_lost_unsent(seq)
        self._undelivered.add(seq)
        if not delivered and seq not in self._candidate_set:
            self._candidate_set.add(seq)
            bisect.insort(self._candidates_sorted, seq)
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
        for seq in range(self.snd_una, cumulative_ack):
            state = self.segments.get(seq)
            if state is None:
                # Segment was never sent (should not happen for a valid ACK)
                # but tolerate it so a buggy receiver cannot wedge the sender.
                continue
            if not state.acked:
                newly_full_acked.append(state)
                if not state.sacked:
                    newly_delivered.append(state)
            self._mark_delivered(state)
            state.acked = True
        old_snd_una = self.snd_una
        self.snd_una = cumulative_ack
        # Drop cum-acked entries from the SACK index.
        if self._sacked_sorted:
            cut = bisect.bisect_left(self._sacked_sorted, cumulative_ack)
            self._sacked_sorted = self._sacked_sorted[cut:]
        if self._lost_unsent:
            cut = bisect.bisect_left(self._lost_unsent, cumulative_ack)
            self._lost_unsent = self._lost_unsent[cut:]
        return newly_delivered, newly_full_acked

    def apply_sack_blocks(
        self, blocks: Iterable[SackBlock], now: Optional[float] = None
    ) -> List[SegmentState]:
        """Mark segments covered by ``blocks`` as SACKed; return newly SACKed states.

        SACK blocks re-report the same ranges on every ACK, so the walk skips
        contiguous runs of already-SACKed sequence numbers via the sorted
        SACK index instead of re-checking each segment's flags; per ACK this
        costs O(log n + newly sacked) rather than O(block width).
        """
        newly_sacked: List[SegmentState] = []
        sacked_sorted = self._sacked_sorted
        segments = self.segments
        snd_una = self.snd_una
        for block in blocks:
            seq = block.start if block.start > snd_una else snd_una
            end = block.end
            if seq >= end:
                continue
            index = bisect.bisect_left(sacked_sorted, seq)
            while seq < end:
                # Skip the contiguous run of already-SACKed seqs starting at
                # `index` in one binary search: within a run, value minus
                # position is constant (the list is sorted and duplicate-free),
                # so find the first position where that invariant breaks.
                run_key = seq - index
                lo, hi = index, len(sacked_sorted)
                while lo < hi:
                    mid = (lo + hi) // 2
                    if sacked_sorted[mid] - mid == run_key:
                        lo = mid + 1
                    else:
                        hi = mid
                seq += lo - index
                index = lo
                if seq >= end:
                    break
                state = segments.get(seq)
                if state is None or state.sacked or state.acked:
                    seq += 1
                    continue
                if (
                    state.transmissions > 1
                    and now is not None
                    and state.last_sent_time is not None
                    and now - state.last_sent_time < self.spurious_rtt_floor
                ):
                    # The delivery arrived sooner after the latest
                    # retransmission than a full round trip allows, so it must
                    # acknowledge an earlier copy: that retransmission was
                    # spurious (the Fig. 4c situation).
                    self.spurious_retransmissions += 1
                self._mark_delivered(state)
                state.sacked = True
                self._detect_dirty = True
                newly_sacked.append(state)
                sacked_sorted.insert(index, seq)
                index += 1
                if state.last_sent_time is not None:
                    if state.last_sent_time > self._latest_sacked_send:
                        self._latest_sacked_send = state.last_sent_time
                if seq > self.high_sacked:
                    self.high_sacked = seq
                seq += 1
        return newly_sacked

    def _mark_delivered(self, state: SegmentState) -> None:
        seq = state.seq
        if state.outstanding and not (state.acked or state.sacked):
            self._pipe -= 1
        state.outstanding = False
        if state.lost:
            state.lost = False
            self._remove_lost_unsent(seq)
        self._undelivered.discard(seq)
        if seq in self._candidate_set:
            self._candidate_set.discard(seq)
            candidates = self._candidates_sorted
            # A cumulative ACK delivers the lowest candidate: no search.
            if candidates[0] == seq:
                del candidates[0]
            else:
                del candidates[bisect.bisect_left(candidates, seq)]

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
        newly_lost: List[SegmentState] = []
        if not self._detect_dirty:
            return newly_lost
        self._detect_dirty = False
        sacked_sorted = self._sacked_sorted
        if self.high_sacked < 0 or len(sacked_sorted) < self.dupthresh:
            # Fewer than dupthresh SACKed segments exist, so no segment can
            # have dupthresh SACKs above it.
            return newly_lost
        # ``dupthresh`` SACKs lie above seq exactly when seq is below the
        # dupthresh-th largest SACKed seq (no candidate is itself SACKed),
        # and that count only shrinks as seq grows — so the sorted candidate
        # walk stops at a single precomputed cutoff.
        cutoff = sacked_sorted[-self.dupthresh]
        candidates = self._candidates_sorted
        index = 0
        while index < len(candidates):
            seq = candidates[index]
            if seq >= cutoff:
                break
            state = self.segments[seq]
            if state.transmissions > 1:
                if not self.redetect_lost_retransmissions:
                    index += 1
                    continue
                if self._latest_sacked_send <= (state.last_sent_time or 0.0) + 1e-12:
                    index += 1
                    continue
            # The next candidate slides into this index, so it is not advanced.
            del candidates[index]
            self._mark_lost(state)
            newly_lost.append(state)
        return newly_lost

    def mark_all_outstanding_lost(self) -> List[SegmentState]:
        """RTO behaviour: every sent, un-delivered segment is presumed lost."""
        candidates = self._candidates_sorted
        cut = bisect.bisect_left(candidates, self.snd_una)
        newly_lost = [self.segments[seq] for seq in candidates[cut:]]
        del candidates[cut:]
        for state in newly_lost:
            self._mark_lost(state)
        return newly_lost

    def _mark_lost(self, state: SegmentState) -> None:
        """Mark a candidate lost; the caller takes it off ``_candidates_sorted``."""
        if state.outstanding:
            self._pipe -= 1
        state.outstanding = False
        state.lost = True
        bisect.insort(self._lost_unsent, state.seq)
        self._candidate_set.discard(state.seq)

    def _remove_lost_unsent(self, seq: int) -> None:
        index = bisect.bisect_left(self._lost_unsent, seq)
        if index < len(self._lost_unsent) and self._lost_unsent[index] == seq:
            self._lost_unsent.pop(index)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def next_lost_segment(self) -> Optional[int]:
        """Lowest segment marked lost and not currently outstanding."""
        while self._lost_unsent:
            seq = self._lost_unsent[0]
            state = self.segments.get(seq)
            if state is None or state.delivered or not state.lost or state.outstanding:
                self._lost_unsent.pop(0)
                continue
            return seq
        return None

    def pipe(self) -> int:
        """Packets believed to be in flight (RFC 6675 ``pipe`` analogue)."""
        return self._pipe

    def has_unacked_data(self) -> bool:
        return bool(self._undelivered)

    def purge_acked(self, keep_below: int = 0) -> None:
        """Drop fully acknowledged segments below ``snd_una`` to bound memory."""
        threshold = max(0, self.snd_una - keep_below)
        stale = [
            seq
            for seq, state in self.segments.items()
            if seq < threshold and state.delivered and seq not in self._undelivered
        ]
        for seq in stale:
            del self.segments[seq]
