"""Bulk-transfer TCP sender.

The sender models the parts of a Linux-like TCP stack that the paper's
findings depend on:

* a SACK scoreboard with RFC 6675-style loss detection and fast retransmit,
* an RFC 6298 retransmission timer with a configurable 1-second minimum RTO
  and exponential backoff,
* Linux-style marking of *all* outstanding un-SACKed segments as lost on an
  RTO, which is what produces spurious retransmissions when SACKs for the
  original transmissions are still in flight (paper section 4.1, Fig. 4c),
* per-transmission rate-sampling stamps that are overwritten on
  retransmission — the exact bookkeeping that corrupts BBR's probe-round
  clocking and bandwidth samples,
* optional pacing, driven by the congestion-control algorithm.

The application is an infinite bulk transfer (the paper's single long flow).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..netsim.engine import EventScheduler
from ..netsim.packet import AckPacket, DEFAULT_MSS, Packet
from .cca.base import AckEvent, CongestionControl
from .rate_sampler import DeliveryRateEstimator
from .rto import RttEstimator
from .sack import SackScoreboard

TransmitCallback = Callable[[Packet], None]


@dataclass(slots=True)
class SenderStats:
    """Aggregate counters and time series exposed after a run."""

    segments_sent: int = 0              #: total transmissions, including retransmissions
    data_segments_sent: int = 0         #: distinct data segments transmitted at least once
    retransmissions: int = 0
    spurious_retransmissions: int = 0
    rto_count: int = 0
    fast_retransmit_entries: int = 0
    delivered: int = 0
    acks: int = 0                       #: ACKs processed
    sack_acks: int = 0                  #: ... carrying at least one SACK block
    recovery_acks: int = 0              #: ... arriving during fast or RTO recovery
    cwnd_series: List[Tuple[float, float]] = field(default_factory=list)
    pacing_series: List[Tuple[float, Optional[float]]] = field(default_factory=list)
    rtt_series: List[Tuple[float, float]] = field(default_factory=list)


class TcpSender:
    """Event-driven TCP sender bound to a congestion-control algorithm."""

    def __init__(
        self,
        scheduler: EventScheduler,
        cca: CongestionControl,
        transmit: TransmitCallback,
        mss_bytes: int = DEFAULT_MSS,
        min_rto: float = 1.0,
        start_time: float = 0.0,
        record_series: bool = True,
        redetect_lost_retransmissions: bool = False,
    ) -> None:
        self.scheduler = scheduler
        self.cca = cca
        self.transmit = transmit
        self.mss_bytes = mss_bytes
        self.start_time = start_time
        self.record_series = record_series

        self.scoreboard = SackScoreboard(
            redetect_lost_retransmissions=redetect_lost_retransmissions
        )
        self.rtt_estimator = RttEstimator(min_rto=min_rto)
        self.rate_estimator = DeliveryRateEstimator()
        self.stats = SenderStats()

        self.next_seq = 0
        self.in_recovery = False
        self.in_rto_recovery = False
        self.recovery_point = 0

        # RFC 6298 restarts the retransmission timer on nearly every ACK, so
        # it is a LazyTimer: restarting updates a deadline instead of
        # cancelling and rescheduling a heap event.
        self._rto_timer = scheduler.timer(self._on_rto)
        self._pacing_event_pending = False
        self._next_send_time = 0.0
        self._started = False
        self._last_purge = 0

        cca.attach(self)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Schedule the start of the bulk transfer."""
        if self._started:
            raise RuntimeError("sender already started")
        self._started = True
        self.scheduler.schedule_at(max(self.start_time, self.scheduler.now), self._on_start)

    def on_ack(self, ack: AckPacket) -> None:
        """Process an ACK arriving from the return path."""
        now = self.scheduler.now
        scoreboard = self.scoreboard
        stats = self.stats
        cca = self.cca

        stats.acks += 1
        if self.in_recovery or self.in_rto_recovery:
            stats.recovery_acks += 1
        sack_blocks = ack.sack_blocks
        if sack_blocks:
            stats.sack_acks += 1
            newly_sacked_states = scoreboard.apply_sack_blocks(sack_blocks, now)
        else:
            newly_sacked_states = []
        cumulative_ack = ack.cumulative_ack
        newly_acked_states, newly_full_acked_states = scoreboard.apply_cumulative_ack(
            cumulative_ack
        )
        newly_delivered_states = newly_acked_states + newly_sacked_states

        rate_sample = None
        rtt = None
        if newly_delivered_states:
            # Linux uses the most recently transmitted of the newly delivered
            # segments as the rate-sample anchor (tcp_rate_skb_delivered keeps
            # the skb with the largest prior_delivered).  Karn's rule: only
            # never-retransmitted segments yield RTT samples, the latest sent
            # among them.
            anchor_tx = None
            anchor_key = None
            rtt_sent = None
            for state in newly_delivered_states:
                tx_state = state.tx_state
                if tx_state is not None:
                    key = (tx_state.prior_delivered, tx_state.sent_time)
                    if anchor_key is None or key > anchor_key:
                        anchor_tx = tx_state
                        anchor_key = key
                if state.transmissions == 1:
                    sent = state.last_sent_time
                    if sent is not None and (rtt_sent is None or sent > rtt_sent):
                        rtt_sent = sent
            if anchor_tx is not None:
                rate_sample = self.rate_estimator.on_segment_delivered(
                    now, anchor_tx, len(newly_delivered_states)
                )
            if rtt_sent is not None:
                rtt = max(1e-9, now - rtt_sent)
                self.rtt_estimator.update(rtt)
                if self.record_series:
                    stats.rtt_series.append((now, rtt))

        newly_lost = scoreboard.detect_losses()
        if newly_lost and not self.in_recovery and not self.in_rto_recovery:
            self.in_recovery = True
            self.recovery_point = self.next_seq
            stats.fast_retransmit_entries += 1
            cca.on_loss(now, scoreboard._pipe)

        if (self.in_recovery or self.in_rto_recovery) and scoreboard.snd_una >= self.recovery_point:
            self.in_recovery = False
            self.in_rto_recovery = False
            cca.on_recovery_exit(now)

        if newly_full_acked_states:
            # RFC 6298 section 5.3: restart the timer only when the ACK
            # acknowledges new cumulative data.  SACK-only ACKs must not push
            # the timer back, otherwise a lost retransmission would never time
            # out while later data keeps getting SACKed.
            self._rearm_rto(now)

        delivered = self.rate_estimator.delivered
        stats.delivered = delivered
        stats.spurious_retransmissions = scoreboard.spurious_retransmissions
        # Bound scoreboard memory on long transfers: fully acknowledged
        # segments far below snd_una are never consulted again.
        if scoreboard.snd_una - self._last_purge > 2048:
            scoreboard.purge_acked(keep_below=256)
            self._last_purge = scoreboard.snd_una

        cca.on_ack(
            AckEvent(
                now,
                len(newly_full_acked_states),
                len(newly_sacked_states),
                len(newly_delivered_states),
                cumulative_ack,
                delivered,
                scoreboard._pipe,
                rate_sample,
                rtt,
                self.in_recovery,
                self.in_rto_recovery,
            )
        )
        if self.record_series:
            self._record_series(now)
        self._try_send()

    # ------------------------------------------------------------------ #
    # Transmission path
    # ------------------------------------------------------------------ #

    def _on_start(self) -> None:
        self._next_send_time = self.scheduler.now
        self._try_send()

    def _try_send(self) -> None:
        """Send while the window and the pacing clock allow: lost segments
        first, then new data.  One straight-line loop, since a recovery burst
        runs it for every ACK."""
        now = self.scheduler.now
        scoreboard = self.scoreboard
        cca = self.cca
        # The CCA's control outputs only change in its ack/loss/RTO
        # callbacks, so they are loop invariants for the whole send burst.
        pacing_rate = cca.pacing_rate
        paced = pacing_rate is not None and pacing_rate > 0
        pace_step = 1.0 / pacing_rate if paced else 0.0
        cwnd = int(cca.cwnd)
        if cwnd < 1:
            cwnd = 1
        stats = self.stats
        mss_bytes = self.mss_bytes
        rto_timer = self._rto_timer
        on_segment_sent = self.rate_estimator.on_segment_sent
        on_transmit = scoreboard.on_transmit
        transmit = self.transmit
        while True:
            if paced and now < self._next_send_time - 1e-12:
                if not self._pacing_event_pending:
                    self._pacing_event_pending = True
                    self.scheduler.schedule(self._next_send_time - now, self._pacing_fire)
                return
            pipe = scoreboard._pipe
            if pipe >= cwnd:
                return
            seq = scoreboard.next_lost_segment() if scoreboard._lost_unsent else None
            is_retransmit = seq is not None
            if is_retransmit:
                stats.retransmissions += 1
            else:
                seq = self.next_seq
                self.next_seq += 1
                stats.data_segments_sent += 1
            stats.segments_sent += 1
            on_transmit(seq, now, on_segment_sent(now, pipe, is_retransmit))
            if rto_timer._deadline is None:
                self._rearm_rto(now)
            transmit(Packet(seq, mss_bytes, is_retransmit, now))
            if paced:
                next_time = self._next_send_time
                self._next_send_time = (now if now > next_time else next_time) + pace_step

    def _pacing_fire(self) -> None:
        self._pacing_event_pending = False
        self._try_send()

    # ------------------------------------------------------------------ #
    # RTO handling
    # ------------------------------------------------------------------ #

    def _rearm_rto(self, now: float) -> None:
        if self.scoreboard.has_unacked_data():
            self._rto_timer.arm(now + self.rtt_estimator.rto)
        else:
            self._rto_timer.disarm()

    def _on_rto(self) -> None:
        now = self.scheduler.now
        if not self.scoreboard.has_unacked_data():
            return
        self.stats.rto_count += 1
        self.rtt_estimator.on_timeout()
        pipe_before_loss = self.scoreboard.pipe()
        # Linux tcp_enter_loss(): every outstanding, un-SACKed segment is
        # presumed lost.  The SACKs for some of those segments may still be
        # in flight — retransmitting them anyway is what creates the
        # spurious retransmissions at the heart of the BBR finding.
        self.scoreboard.mark_all_outstanding_lost()
        self.in_recovery = False
        self.in_rto_recovery = True
        self.recovery_point = self.next_seq
        self.cca.on_rto(now, pipe_before_loss)
        self._record_series(now)
        self._rearm_rto(now)
        # Pacing must not delay the first retransmission past the timeout.
        self._next_send_time = min(self._next_send_time, now)
        self._try_send()

    # ------------------------------------------------------------------ #
    # Bookkeeping
    # ------------------------------------------------------------------ #

    def _record_series(self, now: float) -> None:
        if not self.record_series:
            return
        self.stats.cwnd_series.append((now, float(self.cca.cwnd)))
        self.stats.pacing_series.append((now, self.cca.pacing_rate))
