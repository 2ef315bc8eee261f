"""Performance scores: quantify how badly the CCA behaved in a run.

All scores are oriented so that **higher = worse CCA behaviour = fitter
trace** (the genetic algorithm maximises them).
"""

from __future__ import annotations

from ..netsim.packet import CCA_FLOW
from ..netsim.simulation import SimulationResult
from .base import PerformanceScore
from .windowed import bottom_fraction_mean, percentile


class LowUtilizationScore(PerformanceScore):
    """Rewards traces that force the CCA's throughput down (section 3.4).

    The score is the negated mean of the lowest ``bottom_fraction`` of
    windowed-throughput samples.  Using the worst windows rather than the
    whole-run average keeps trace diversity: traces that only hurt the flow
    early do not dominate.
    """

    name = "low_utilization"

    def __init__(self, window: float = 0.25, bottom_fraction: float = 0.2) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self.bottom_fraction = bottom_fraction

    def __call__(self, result: SimulationResult) -> float:
        series = result.windowed_throughput(window=self.window)
        rates = [rate for _, rate in series]
        return -bottom_fraction_mean(rates, self.bottom_fraction)


class HighDelayScore(PerformanceScore):
    """Rewards traces that cause persistently high queueing delay.

    The paper's BBR-delay experiment (section 4.3) scores traces by the 10th
    percentile of queueing delay: a high *low* percentile means the delay was
    high essentially all the time, not just in a spike.  The delays are the
    flow under test's.
    """

    name = "high_delay"

    def __init__(self, percentile_rank: float = 10.0) -> None:
        if not 0 <= percentile_rank <= 100:
            raise ValueError("percentile_rank must be in [0, 100]")
        self.percentile_rank = percentile_rank
        self.flow = CCA_FLOW

    def __call__(self, result: SimulationResult) -> float:
        delays = [delay for _, delay in result.queueing_delays(self.flow)]
        if not delays:
            return 0.0
        return percentile(delays, self.percentile_rank)


class HighLossScore(PerformanceScore):
    """Rewards traces that force a high loss rate on the flow under test."""

    name = "high_loss"

    def __call__(self, result: SimulationResult) -> float:
        return result.loss_rate(CCA_FLOW)
