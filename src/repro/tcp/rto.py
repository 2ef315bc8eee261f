"""RFC 6298 retransmission timeout estimation.

The paper's setup (section 4) enables the Linux/RFC defaults with a minimum
RTO of 1 second ("min-RTO is set to 1 second (as per RFC 6298/2.4)").  The
1-second floor is central to several findings: it creates the long silent
periods that the low-rate attack exploits and the window in which BBR's
spurious retransmissions occur.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Optional


@dataclass
class RttEstimator:
    """Smoothed RTT / RTO state per RFC 6298.

    Parameters
    ----------
    min_rto:
        Lower bound on the computed RTO (``SimulationConfig.min_rto``: 1
        second per the paper).
    max_rto:
        Upper bound applied after exponential backoff.
    initial_rto:
        RTO used before the first RTT sample (RFC 6298 recommends 1 s).
    """

    #: RFC 6298's smoothing gains for SRTT and RTTVAR.
    alpha: ClassVar[float] = 1.0 / 8.0
    beta: ClassVar[float] = 1.0 / 4.0

    min_rto: float
    max_rto: float = 60.0
    initial_rto: float = 1.0
    srtt: Optional[float] = field(init=False, default=None)
    rttvar: Optional[float] = field(init=False, default=None)
    backoff_count: int = field(init=False, default=0)

    def update(self, rtt_sample: float) -> None:
        """Fold a new RTT sample into the smoothed estimators."""
        if rtt_sample <= 0:
            raise ValueError(f"RTT sample must be positive, got {rtt_sample}")
        if self.srtt is None:
            self.srtt = rtt_sample
            self.rttvar = rtt_sample / 2.0
        else:
            assert self.rttvar is not None
            self.rttvar = (1 - self.beta) * self.rttvar + self.beta * abs(self.srtt - rtt_sample)
            self.srtt = (1 - self.alpha) * self.srtt + self.alpha * rtt_sample
        # A successful RTT sample means the connection is making progress, so
        # the exponential backoff resets (RFC 6298 section 5.7).
        self.backoff_count = 0

    @property
    def rto(self) -> float:
        """Current RTO: the clamped estimate, then exponential backoff."""
        srtt = self.srtt
        rttvar = self.rttvar
        if srtt is None or rttvar is None:
            base = max(self.initial_rto, self.min_rto)
        else:
            base = min(max(srtt + max(4.0 * rttvar, 1e-3), self.min_rto), self.max_rto)
        return min(base * (2 ** self.backoff_count), self.max_rto)

    def on_timeout(self) -> None:
        """Apply exponential backoff after an expiry (RFC 6298 section 5.5)."""
        self.backoff_count += 1
