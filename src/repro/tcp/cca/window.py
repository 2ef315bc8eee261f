"""Loss recovery shared by the window-based algorithms (Reno, CUBIC).

RFC 5681 / RFC 6582 give every loss-based window algorithm the same state
machine around its growth function: on a loss the window shrinks and the
connection enters fast recovery, frozen until the recovery point is
acknowledged; on a retransmission timeout the window collapses to its
minimum and the connection slow-starts from there.  The algorithms differ
only in *how far* the window shrinks, which is the one hook
(:meth:`WindowCongestionControl._shrink`) a subclass supplies — plus its own
``on_ack`` growth function.
"""

from __future__ import annotations

import abc
from typing import Any, Dict

from .base import CongestionControl


class WindowCongestionControl(CongestionControl):
    """Slow start / congestion avoidance / recovery around a ``cwnd``."""

    def __init__(self, initial_cwnd: float, initial_ssthresh: float, min_cwnd: float) -> None:
        super().__init__()
        self._cwnd = float(initial_cwnd)
        self.ssthresh = float(initial_ssthresh)
        self.min_cwnd = float(min_cwnd)
        self._in_recovery = False
        self._exited_via_rto = False
        self.loss_events = 0
        self.rto_events = 0
        self._track_state(self.state)

    @abc.abstractmethod
    def _shrink(self, in_flight: int) -> None:
        """Set ``ssthresh`` (and any algorithm state) for a congestion event
        seen with ``in_flight`` segments outstanding."""

    # ------------------------------------------------------------------ #
    # Loss handling
    # ------------------------------------------------------------------ #

    def on_loss(self, now: float, in_flight: int) -> None:
        self.loss_events += 1
        if not self._in_recovery:
            self.recovery_entries += 1
        self._shrink(in_flight)
        self._cwnd = max(self.ssthresh, self.min_cwnd)
        self._in_recovery = True
        self._exited_via_rto = False
        self._track_state(self.state)

    def on_recovery_exit(self, now: float) -> None:
        if self._in_recovery:
            self.recovery_exits += 1
        self._in_recovery = False
        if self._exited_via_rto:
            # After an RTO the connection stays in slow start from its
            # one-segment window (NS3/Linux behaviour); only a fast-recovery
            # exit restores ssthresh.  This is precisely why the first
            # post-RTO cumulative ACK can be huge when it reaches CUBIC's
            # slow-start increase function (section 4.2).
            self._exited_via_rto = False
        else:
            self._cwnd = max(self.ssthresh, self.min_cwnd)
        self._track_state(self.state)

    def on_rto(self, now: float, in_flight: int) -> None:
        self.rto_events += 1
        self._shrink(in_flight)
        self._cwnd = self.min_cwnd
        self._in_recovery = False
        self._exited_via_rto = True
        self._track_state(self.state)

    # ------------------------------------------------------------------ #
    # Control outputs
    # ------------------------------------------------------------------ #

    @property
    def cwnd(self) -> float:
        return max(self._cwnd, self.min_cwnd)

    @property
    def state(self) -> str:
        """Coarse state-machine phase (one vocabulary for Reno and CUBIC)."""
        if self._in_recovery:
            return "recovery"
        if self._cwnd < self.ssthresh:
            return "slow_start"
        return "congestion_avoidance"

    def diagnostics(self) -> Dict[str, Any]:
        diag = super().diagnostics()
        diag.update(
            state=self.state,
            cwnd=self.cwnd,
            ssthresh=self.ssthresh,
            loss_events=self.loss_events,
            rto_events=self.rto_events,
        )
        return diag
