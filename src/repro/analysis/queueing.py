"""Queue-occupancy and queueing-delay analysis (paper Fig. 4e)."""

from __future__ import annotations

from typing import List, Tuple

from ..netsim.packet import CCA_FLOW
from ..netsim.simulation import SimulationResult


def queue_depth_series(result: SimulationResult) -> List[Tuple[float, int]]:
    """(time, queue depth in packets) samples recorded at the gateway."""
    return list(result.monitor.queue_depth)


def max_queue_depth(result: SimulationResult) -> int:
    depths = [depth for _, depth in result.monitor.queue_depth]
    return max(depths) if depths else 0


def time_above_delay(
    result: SimulationResult, threshold_s: float, flow: str = CCA_FLOW
) -> float:
    """Fraction of delivered packets whose queueing delay exceeded ``threshold_s``."""
    delays = [d for _, d in result.queueing_delays(flow)]
    if not delays:
        return 0.0
    return sum(1 for d in delays if d > threshold_s) / len(delays)
