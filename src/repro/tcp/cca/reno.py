"""TCP (New)Reno congestion control.

Classic AIMD loss-based congestion control: slow start, congestion avoidance,
fast-recovery window halving and a collapse to one segment on RTO.  Reno is
the target of the low-rate ("shrew") attack rediscovery in section 4.3: the
1-second minimum RTO and exponential backoff mean that a short, periodic
burst of cross traffic which always hits the retransmission keeps Reno
pinned at a window of one.
"""

from __future__ import annotations

from typing import Any, Dict

from .base import INITIAL_CWND, AckEvent
from .window import WindowCongestionControl


class Reno(WindowCongestionControl):
    """NewReno-style AIMD congestion control."""

    name = "reno"

    #: RFC 5681's multiplicative decrease: ssthresh is half the flight size.
    LOSS_REDUCTION = 0.5

    def __init__(
        self, initial_cwnd: float = INITIAL_CWND, initial_ssthresh: float = float("inf")
    ) -> None:
        super().__init__(initial_cwnd, initial_ssthresh)
        self.loss_reduction = self.LOSS_REDUCTION

    # ------------------------------------------------------------------ #
    # Event handling
    # ------------------------------------------------------------------ #

    def on_ack(self, event: AckEvent) -> None:
        acked = float(event.newly_acked)
        if acked <= 0 or self._in_recovery:
            return
        if self._cwnd < self.ssthresh:
            # Slow start: one segment of growth per segment acknowledged,
            # clamped at ssthresh (the clamp CUBIC-in-NS3 forgets, see cubic.py).
            slow_start_growth = min(acked, self.ssthresh - self._cwnd)
            self._cwnd += slow_start_growth
            acked -= slow_start_growth
        if acked > 0:
            # Congestion avoidance: roughly one segment per RTT.
            self._cwnd += acked / self._cwnd
        self._track_state(self.state)

    def _shrink(self, in_flight: int) -> None:
        self.ssthresh = max(in_flight * self.loss_reduction, 2.0)

    def diagnostics(self) -> Dict[str, Any]:
        diag = super().diagnostics()
        diag["in_recovery"] = self._in_recovery
        return diag
