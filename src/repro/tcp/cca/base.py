"""Congestion-control algorithm interface.

The sender drives a :class:`CongestionControl` instance through a small set
of callbacks (ACK processing, loss, RTO) and reads back two knobs: the
congestion window (in segments) and an optional pacing rate (segments per
second).  Window-based algorithms (Reno, CUBIC) leave the pacing rate unset;
rate-based algorithms (BBR) set both.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..rate_sampler import RateSample


@dataclass(slots=True)
class AckEvent:
    """Information handed to the CCA for every processed ACK."""

    now: float
    newly_acked: int            #: segments newly covered by the cumulative ACK (including
                                #: previously-SACKed ones) — what window growth sees
    newly_sacked: int           #: segments newly selectively acknowledged
    newly_delivered: int        #: segments delivered for the first time (rate-sampling count)
    cumulative_ack: int
    delivered: int              #: connection-lifetime delivered segment count
    in_flight: int              #: pipe after this ACK was applied
    rate_sample: Optional[RateSample]
    rtt: Optional[float]        #: RTT sample from this ACK (None if unavailable)
    in_recovery: bool
    in_rto_recovery: bool


class CongestionControl(abc.ABC):
    """Abstract congestion-control algorithm.

    A CCA keeps no per-ACK history: its run-long record is its
    :meth:`diagnostics` scalars and its ``state_transition_counts``.
    """

    name: str = "base"

    def __init__(self) -> None:
        # State-machine transition multiset ("OLD>NEW" -> count), maintained by
        # the concrete algorithms via _track_state().  Bounded by the (small)
        # number of distinct state pairs, so it is safe to keep for arbitrarily
        # long simulations — unlike a full per-transition history.
        self.state_transition_counts: Dict[str, int] = {}
        self._last_tracked_state: Optional[str] = None
        self.recovery_entries = 0
        self.recovery_exits = 0

    # ------------------------------------------------------------------ #
    # Event callbacks
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def on_ack(self, event: AckEvent) -> None:
        """Process an acknowledgement (cumulative and/or selective)."""

    def on_loss(self, now: float, in_flight: int) -> None:
        """Called once when the sender enters fast-recovery."""

    def on_recovery_exit(self, now: float) -> None:
        """Called when the sender leaves fast-recovery or RTO recovery."""

    def on_rto(self, now: float, in_flight: int) -> None:
        """Called when the retransmission timer expires."""

    # ------------------------------------------------------------------ #
    # Control outputs
    # ------------------------------------------------------------------ #

    @property
    @abc.abstractmethod
    def cwnd(self) -> float:
        """Congestion window in segments."""

    @property
    def pacing_rate(self) -> Optional[float]:
        """Pacing rate in segments per second (None = no pacing)."""
        return None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def _track_state(self, state: str) -> None:
        """Record a (possible) state-machine transition into the multiset."""
        last = self._last_tracked_state
        if last is None:
            self._last_tracked_state = state
            return
        if state != last:
            key = f"{last}>{state}"
            counts = self.state_transition_counts
            counts[key] = counts.get(key, 0) + 1
            self._last_tracked_state = state

    def diagnostics(self) -> Dict[str, Any]:
        """Algorithm-specific diagnostic counters for analysis and tests.

        Concrete algorithms extend this; every registered CCA guarantees the
        uniform keys ``state``, ``cwnd``, ``ssthresh`` (or its closest
        equivalent), ``loss_events``, ``rto_events``, ``recovery_entries``,
        ``recovery_exits`` and ``state_transitions`` so behavior-signature
        extraction never special-cases an algorithm.
        """
        return {
            "recovery_entries": self.recovery_entries,
            "recovery_exits": self.recovery_exits,
            "state_transitions": dict(self.state_transition_counts),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(cwnd={self.cwnd:.1f})"
