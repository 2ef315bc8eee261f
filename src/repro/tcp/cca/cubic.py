"""TCP CUBIC congestion control, with the NS3 slow-start bug reproducible.

CUBIC grows its window along a cubic curve anchored at the window size before
the last loss.  Slow start behaves like Reno.

Section 4.2 of the paper reports an NS3-specific implementation bug that
CC-Fuzz triggered: when a retransmission is itself lost, the connection falls
back to an RTO and slow start; the ACK for the second retransmission then
cumulatively acknowledges a large amount of data at once, and NS3's CUBIC
adds the full number of newly acknowledged segments to the window *without
clamping at ssthresh*.  The result is a near 1-RTO-sized burst and
catastrophic loss.  The Linux implementation clamps correctly.

``ns3_slow_start_bug=True`` reproduces the buggy behaviour;
``False`` (default) reproduces the correct Linux behaviour.
"""

from __future__ import annotations

from typing import Any, Dict

from .base import INITIAL_CWND, AckEvent
from .window import WindowCongestionControl


class Cubic(WindowCongestionControl):
    """CUBIC congestion control (RFC 8312 constants)."""

    name = "cubic"

    #: CUBIC scaling constant (segments / s^3).
    C = 0.4
    #: Multiplicative decrease factor.
    BETA = 0.7
    #: Fast convergence (RFC 8312 §4.6), on as in Linux and NS3.
    FAST_CONVERGENCE = True
    #: HyStart's delay-increase threshold bounds, in seconds (Linux's 4 and
    #: 16 ms).
    HYSTART_MIN_DELAY_INCREASE = 0.004
    HYSTART_MAX_DELAY_INCREASE = 0.016

    def __init__(
        self,
        initial_cwnd: float = INITIAL_CWND,
        initial_ssthresh: float = float("inf"),
        ns3_slow_start_bug: bool = False,
        hystart: bool = True,
    ) -> None:
        super().__init__(initial_cwnd, initial_ssthresh)
        self.ns3_slow_start_bug = ns3_slow_start_bug
        self.fast_convergence = self.FAST_CONVERGENCE
        #: HyStart (delay-increase variant), enabled by default as in both the
        #: Linux and NS3 CUBIC implementations: slow start exits as soon as the
        #: RTT rises noticeably above its observed minimum, avoiding the huge
        #: overshoot-and-timeout that blind doubling causes on shallow buffers.
        self.hystart = hystart
        self.hystart_min_delay_increase = self.HYSTART_MIN_DELAY_INCREASE
        self.hystart_max_delay_increase = self.HYSTART_MAX_DELAY_INCREASE
        self.hystart_min_samples = 8
        self._min_rtt: float = float("inf")
        self._round_min_rtt: float = float("inf")
        self._round_samples = 0
        self._round_end_time = 0.0
        self.hystart_exits = 0

        self.w_max = 0.0
        self._epoch_start: float = -1.0
        self._k = 0.0
        self._origin_point = 0.0
        self._w_tcp = 0.0
        #: Largest single-ACK window jump observed while in slow start; the
        #: NS3 bug manifests as a jump far larger than ssthresh allows.
        self.max_slow_start_jump = 0.0

    # ------------------------------------------------------------------ #
    # Window growth
    # ------------------------------------------------------------------ #

    def on_ack(self, event: AckEvent) -> None:
        if event.rtt is not None:
            self._min_rtt = min(self._min_rtt, event.rtt)
            if self.hystart and self._cwnd < self.ssthresh:
                self._hystart_check(event.now, event.rtt)
        acked = float(event.newly_acked)
        if acked <= 0 or self._in_recovery:
            self._track_state(self.state)
            return
        if self._cwnd < self.ssthresh:
            self._slow_start(acked)
        else:
            self._congestion_avoidance(event.now, acked, event.rtt)
        self._track_state(self.state)

    def _hystart_check(self, now: float, rtt: float) -> None:
        """HyStart delay-increase detection, evaluated on per-round minimum RTT.

        Using the round's *minimum* RTT over at least ``hystart_min_samples``
        samples makes the exit robust to delayed-ACK jitter, mirroring the
        Linux/NS3 implementations.
        """
        if self._min_rtt == float("inf"):
            return
        if now >= self._round_end_time:
            # Start a new measurement round lasting roughly one smoothed RTT.
            self._round_end_time = now + max(self._min_rtt, 1e-3)
            self._round_min_rtt = rtt
            self._round_samples = 1
            return
        self._round_min_rtt = min(self._round_min_rtt, rtt)
        self._round_samples += 1
        if self._round_samples < self.hystart_min_samples:
            return
        threshold = min(
            max(self._min_rtt / 8.0, self.hystart_min_delay_increase),
            self.hystart_max_delay_increase,
        )
        if self._round_min_rtt >= self._min_rtt + threshold:
            self.ssthresh = min(self.ssthresh, max(self._cwnd, 2.0))
            self.hystart_exits += 1

    def _slow_start(self, acked: float) -> None:
        before = self._cwnd
        if self.ns3_slow_start_bug:
            # NS3 bug: the newly acknowledged segment count is added wholesale,
            # with no clamp at ssthresh.  A large cumulative ACK after an RTO
            # therefore opens the window far past ssthresh in one step.
            self._cwnd += acked
        else:
            growth = min(acked, max(0.0, self.ssthresh - self._cwnd))
            self._cwnd += growth
            leftover = acked - growth
            if leftover > 0:
                self._cwnd += leftover / self._cwnd
        self.max_slow_start_jump = max(self.max_slow_start_jump, self._cwnd - before)

    def _congestion_avoidance(self, now: float, acked: float, rtt) -> None:
        if self._epoch_start < 0:
            self._epoch_start = now
            if self._cwnd < self.w_max:
                self._k = ((self.w_max - self._cwnd) / self.C) ** (1.0 / 3.0)
                self._origin_point = self.w_max
            else:
                self._k = 0.0
                self._origin_point = self._cwnd
            self._w_tcp = self._cwnd
        rtt_value = rtt if rtt else 0.04
        t = now - self._epoch_start + rtt_value
        target = self._origin_point + self.C * (t - self._k) ** 3
        if target > self._cwnd:
            # Approach the cubic target within roughly one RTT, never
            # overshooting it on a single (possibly very large) ACK.
            growth = (target - self._cwnd) / max(self._cwnd, 1.0) * acked
            self._cwnd += min(growth, target - self._cwnd)
        # TCP-friendly region (RFC 8312 section 4.2): never grow slower than an
        # AIMD flow with the same beta would.  The estimate is time-based, so a
        # single large cumulative ACK cannot inflate it.
        elapsed_rtts = t / max(rtt_value, 1e-3)
        w_est = self._w_tcp + 3.0 * (1.0 - self.BETA) / (1.0 + self.BETA) * elapsed_rtts
        if w_est > self._cwnd:
            self._cwnd = w_est

    # ------------------------------------------------------------------ #
    # Loss handling
    # ------------------------------------------------------------------ #

    def _shrink(self, in_flight: int) -> None:
        window_at_loss = max(float(in_flight), self._cwnd)
        if self.fast_convergence and window_at_loss < self.w_max:
            self.w_max = window_at_loss * (1.0 + self.BETA) / 2.0
        else:
            self.w_max = window_at_loss
        self.ssthresh = max(window_at_loss * self.BETA, 2.0)
        self._epoch_start = -1.0

    def diagnostics(self) -> Dict[str, Any]:
        diag = super().diagnostics()
        diag.update(
            w_max=self.w_max,
            max_slow_start_jump=self.max_slow_start_jump,
            ns3_slow_start_bug=self.ns3_slow_start_bug,
            hystart_exits=self.hystart_exits,
        )
        return diag
