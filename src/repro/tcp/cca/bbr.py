"""TCP BBR (v1) congestion control.

This is a faithful-in-mechanism reimplementation of the parts of BBRv1 that
the paper's findings exercise (section 4.1):

* a windowed **max filter over the last 10 probing rounds** of delivery-rate
  samples (the bottleneck-bandwidth estimate),
* an 8-phase pacing-gain cycle ``[1.25, 0.75, 1, 1, 1, 1, 1, 1]`` in
  PROBE_BW,
* **round counting driven by ``prior_delivered``**: a probing round ends when
  the ACKed segment's ``prior_delivered`` reaches the ``delivered`` count
  recorded at the start of the round.  Because spurious retransmissions
  rewrite ``prior_delivered``, rounds can end prematurely after an RTO,
  rotating genuine bandwidth samples out of the max filter and replacing them
  with tiny post-RTO samples — the permanent-stall bug CC-Fuzz found,
* a min-RTT filter with PROBE_RTT, and the paper's proposed mitigation:
  ``probe_rtt_on_rto=True`` enters PROBE_RTT when an RTO fires, capping the
  window at 4 segments long enough for in-flight SACKs to arrive and thereby
  avoiding most spurious retransmissions (Fig. 4d).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

from .base import INITIAL_CWND, AckEvent, CongestionControl


class Bbr(CongestionControl):
    """Simplified-but-mechanistic BBRv1."""

    name = "bbr"

    #: Startup gain, 2 / ln(2) = 2.8854.  2.885 is Linux ``tcp_bbr.c``'s
    #: ``bbr_high_gain = BBR_UNIT * 2885 / 1000 + 1``; the IETF draft rounds the
    #: same constant to 2.89.  It stays: it is the deployed value, and moving
    #: it would move every BBR golden for a 0.2% change of gain.
    HIGH_GAIN = 2.885
    DRAIN_GAIN = 1.0 / 2.885
    PACING_GAIN_CYCLE = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    CWND_GAIN = 2.0
    BTLBW_FILTER_ROUNDS = 10                #: max-filter window, in probing rounds
    RTPROP_FILTER_SECONDS = 10.0
    PROBE_RTT_DURATION = 0.2                #: seconds spent at the minimal window
    MIN_CWND = 4.0
    #: seconds; paces the first window until the first RTT sample
    INITIAL_RTT = 0.04

    STARTUP = "STARTUP"
    DRAIN = "DRAIN"
    PROBE_BW = "PROBE_BW"
    PROBE_RTT = "PROBE_RTT"

    def __init__(self, probe_rtt_on_rto: bool = False, min_pacing_rate: float = 0.25) -> None:
        super().__init__()
        self.probe_rtt_on_rto = probe_rtt_on_rto
        self.min_pacing_rate = min_pacing_rate

        self.state = self.STARTUP
        self.pacing_gain = self.HIGH_GAIN
        self.cwnd_gain = self.HIGH_GAIN

        self._cwnd = INITIAL_CWND
        self.initial_rtt = self.INITIAL_RTT

        # Bottleneck bandwidth max filter over (round_count, rate) samples,
        # kept as a monotonic-decreasing deque so the windowed max is O(1)
        # per query.  ``btlbw`` is read on every pacing decision.
        self._btlbw_max: Deque[Tuple[int, float]] = deque()
        self.rtprop = float("inf")
        self.rtprop_stamp = 0.0
        self._rtprop_expired = False

        # Round accounting (the prior_delivered mechanism).
        self.next_round_delivered = 0
        self.round_count = 0
        self.round_start = False

        # STARTUP full-pipe detection.
        self.full_bw = 0.0
        self.full_bw_count = 0
        self.filled_pipe = False

        # PROBE_BW gain cycling.
        self.cycle_index = 2
        self.cycle_stamp = 0.0

        # PROBE_RTT bookkeeping.
        self.probe_rtt_done_stamp: Optional[float] = None
        self.probe_rtt_round_done = False

        # Loss recovery (packet conservation) bookkeeping.
        self.in_loss_recovery = False
        self.prior_cwnd = self._cwnd

        # Diagnostics for the paper's findings.
        self.premature_round_ends = 0
        self.rto_events = 0
        self.loss_events = 0
        #: Largest delivery-rate sample the max filter ever admitted, i.e. the
        #: highest ``btlbw`` of the run (Fig. 4c's "collapsed from" value).
        self.peak_btlbw = 0.0
        self._track_state(self.state)

    # ------------------------------------------------------------------ #
    # Derived estimates
    # ------------------------------------------------------------------ #

    @property
    def btlbw(self) -> float:
        """Bottleneck bandwidth estimate in segments/second (max filter).

        The head of the monotonic deque is the largest sample of the last
        ``BTLBW_FILTER_ROUNDS`` rounds: appends evict dominated samples from
        the tail, expiry evicts stale maxima from the head.
        """
        if not self._btlbw_max:
            return 0.0
        return self._btlbw_max[0][1]

    @property
    def bdp(self) -> float:
        """Estimated bandwidth-delay product in segments."""
        rtprop = self.rtprop if self.rtprop != float("inf") else self.initial_rtt
        return self.btlbw * rtprop

    @property
    def cwnd(self) -> float:
        if self.state == self.PROBE_RTT:
            return self.MIN_CWND
        return max(self._cwnd, self.MIN_CWND)

    @property
    def pacing_rate(self) -> Optional[float]:
        bw = self.btlbw
        if bw <= 0:
            # Before the first bandwidth sample, pace at the startup gain over
            # the initial window / RTT (mirrors bbr_init_pacing_rate_from_rtt).
            bw = self._cwnd / self.initial_rtt
        rate = self.pacing_gain * bw
        return max(rate, self.min_pacing_rate)

    # ------------------------------------------------------------------ #
    # Main ACK processing
    # ------------------------------------------------------------------ #

    def on_ack(self, event: AckEvent) -> None:
        now = event.now
        rs = event.rate_sample

        if rs is not None:
            self._update_round(event)
            self._update_btlbw(rs)
            self._update_rtprop(now, rs)

        self._check_full_pipe()
        self._update_state_machine(now, event)
        self._update_gains()
        self._update_cwnd(event)

        self._track_state(self.state)

    def _update_round(self, event: AckEvent) -> None:
        rs = event.rate_sample
        assert rs is not None
        if rs.prior_delivered >= self.next_round_delivered:
            self.next_round_delivered = event.delivered
            self.round_count += 1
            self.round_start = True
            if rs.is_retransmit:
                # The round was closed by a sample anchored on a retransmitted
                # segment — the premature round ending of section 4.1.
                self.premature_round_ends += 1
        else:
            self.round_start = False

    def _update_btlbw(self, rs) -> None:
        if rs.delivery_rate <= 0:
            return
        rate = rs.delivery_rate
        if rate > self.peak_btlbw:
            self.peak_btlbw = rate
        round_count = self.round_count
        # Monotonic max filter: drop dominated samples from the tail (a tie
        # keeps the newer sample, which lives longer — same max either way),
        # then expire stale entries from the head.
        btlbw_max = self._btlbw_max
        while btlbw_max and btlbw_max[-1][1] <= rate:
            btlbw_max.pop()
        btlbw_max.append((round_count, rate))
        horizon = round_count - self.BTLBW_FILTER_ROUNDS
        while btlbw_max and btlbw_max[0][0] <= horizon:
            btlbw_max.popleft()

    def _update_rtprop(self, now: float, rs) -> None:
        # The expiry decision is latched *before* this sample may refresh the
        # filter, mirroring bbr_update_min_rtt(): an expired filter still
        # triggers PROBE_RTT even though the same ACK provides a new minimum.
        self._rtprop_expired = (
            self.rtprop != float("inf")
            and now - self.rtprop_stamp > self.RTPROP_FILTER_SECONDS
        )
        if rs.rtt is None:
            return
        if rs.rtt <= self.rtprop or self._rtprop_expired:
            self.rtprop = rs.rtt
            self.rtprop_stamp = now

    # ------------------------------------------------------------------ #
    # State machine
    # ------------------------------------------------------------------ #

    def _check_full_pipe(self) -> None:
        if self.filled_pipe or not self.round_start:
            return
        if self.btlbw >= self.full_bw * 1.25:
            self.full_bw = self.btlbw
            self.full_bw_count = 0
            return
        self.full_bw_count += 1
        if self.full_bw_count >= 3:
            self.filled_pipe = True

    def _update_state_machine(self, now: float, event: AckEvent) -> None:
        if self.state == self.STARTUP and self.filled_pipe:
            self.state = self.DRAIN
        if self.state == self.DRAIN and event.in_flight <= self.bdp:
            self._enter_probe_bw(now)
        if self.state == self.PROBE_BW:
            self._advance_cycle(now, event)
        self._check_probe_rtt(now, event)

    def _enter_probe_bw(self, now: float) -> None:
        self.state = self.PROBE_BW
        self.cycle_index = 2
        self.cycle_stamp = now

    def _advance_cycle(self, now: float, event: AckEvent) -> None:
        rtprop = self.rtprop if self.rtprop != float("inf") else self.initial_rtt
        elapsed = now - self.cycle_stamp
        gain = self.PACING_GAIN_CYCLE[self.cycle_index]
        should_advance = elapsed > rtprop
        if gain == 0.75:
            # Leave the drain phase as soon as the queue is drained.
            should_advance = should_advance or event.in_flight <= self.bdp
        if gain == 1.25:
            # Stay in the probing phase a full rtprop even if a round ends.
            should_advance = elapsed > rtprop
        if should_advance:
            self.cycle_index = (self.cycle_index + 1) % len(self.PACING_GAIN_CYCLE)
            self.cycle_stamp = now

    def _check_probe_rtt(self, now: float, event: AckEvent) -> None:
        if self.state != self.PROBE_RTT:
            if self._rtprop_expired:
                self._enter_probe_rtt(now)
                self._rtprop_expired = False
            return
        if self.probe_rtt_done_stamp is None:
            self.probe_rtt_done_stamp = now + self.PROBE_RTT_DURATION
        if self.round_start:
            self.probe_rtt_round_done = True
        if self.probe_rtt_round_done and now >= self.probe_rtt_done_stamp:
            self.rtprop_stamp = now
            self._exit_probe_rtt(now)

    def _enter_probe_rtt(self, now: float) -> None:
        self.state = self.PROBE_RTT
        self.probe_rtt_done_stamp = now + self.PROBE_RTT_DURATION
        self.probe_rtt_round_done = False

    def _exit_probe_rtt(self, now: float) -> None:
        if self.filled_pipe:
            self._enter_probe_bw(now)
        else:
            self.state = self.STARTUP
        self.probe_rtt_done_stamp = None

    def _update_gains(self) -> None:
        if self.state == self.STARTUP:
            self.pacing_gain = self.HIGH_GAIN
            self.cwnd_gain = self.HIGH_GAIN
        elif self.state == self.DRAIN:
            self.pacing_gain = self.DRAIN_GAIN
            self.cwnd_gain = self.HIGH_GAIN
        elif self.state == self.PROBE_BW:
            self.pacing_gain = self.PACING_GAIN_CYCLE[self.cycle_index]
            self.cwnd_gain = self.CWND_GAIN
        elif self.state == self.PROBE_RTT:
            self.pacing_gain = 1.0
            self.cwnd_gain = 1.0

    # ------------------------------------------------------------------ #
    # Congestion window
    # ------------------------------------------------------------------ #

    def _update_cwnd(self, event: AckEvent) -> None:
        target = max(self.cwnd_gain * self.bdp, self.MIN_CWND)
        if self.in_loss_recovery:
            # Packet conservation during the first phase of loss recovery:
            # the window tracks what is actually in flight plus what this ACK
            # delivered, so retransmissions go out as fast as ACKs return.
            conserved = event.in_flight + event.newly_delivered
            self._cwnd = max(conserved, self.MIN_CWND)
            if not (event.in_recovery or event.in_rto_recovery):
                self.in_loss_recovery = False
                self._cwnd = max(self.prior_cwnd, target)
            return
        if self.filled_pipe:
            self._cwnd = min(self._cwnd + event.newly_delivered, target)
        else:
            # During STARTUP grow by the delivered count (doubling per round).
            self._cwnd = self._cwnd + event.newly_delivered

    # ------------------------------------------------------------------ #
    # Loss / RTO hooks
    # ------------------------------------------------------------------ #

    def on_loss(self, now: float, in_flight: int) -> None:
        self.loss_events += 1
        if not self.in_loss_recovery:
            self.recovery_entries += 1
            self.prior_cwnd = max(self._cwnd, self.prior_cwnd if self.in_loss_recovery else 0.0)
        self.in_loss_recovery = True
        self._cwnd = max(float(in_flight), self.MIN_CWND)
        self._track_state(self.state)

    def on_recovery_exit(self, now: float) -> None:
        if self.in_loss_recovery:
            self.recovery_exits += 1
            self.in_loss_recovery = False
            target = max(self.cwnd_gain * self.bdp, self.MIN_CWND)
            self._cwnd = max(self.prior_cwnd, target)
        self._track_state(self.state)

    def on_rto(self, now: float, in_flight: int) -> None:
        self.rto_events += 1
        self.prior_cwnd = max(self._cwnd, self.MIN_CWND)
        if self.probe_rtt_on_rto:
            # The paper's proposed mitigation: slow down immediately so the
            # in-flight SACKs arrive before their segments are retransmitted.
            self._enter_probe_rtt(now)
            self._update_gains()
            self.in_loss_recovery = True
            self._cwnd = self.MIN_CWND
        else:
            # Default Linux-like behaviour: collapse to one segment and let
            # packet conservation rebuild the window from returning ACKs.
            self.in_loss_recovery = True
            self._cwnd = 1.0
        self._track_state(self.state)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def diagnostics(self) -> Dict[str, Any]:
        diag = super().diagnostics()
        diag.update(
            state=self.state,
            # BBR has no slow-start threshold; the closest equivalent control
            # is the pre-loss window it restores on recovery exit.
            cwnd=self.cwnd,
            ssthresh=self.prior_cwnd,
            loss_events=self.loss_events,
            btlbw=self.btlbw,
            peak_btlbw=self.peak_btlbw,
            rtprop=self.rtprop,
            bdp=self.bdp,
            round_count=self.round_count,
            premature_round_ends=self.premature_round_ends,
            rto_events=self.rto_events,
            filled_pipe=self.filled_pipe,
            probe_rtt_on_rto=self.probe_rtt_on_rto,
            pacing_gain=self.pacing_gain,
            cwnd_gain=self.cwnd_gain,
        )
        return diag
