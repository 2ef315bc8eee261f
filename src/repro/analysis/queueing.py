"""Queue-occupancy and queueing-delay analysis (paper Fig. 4e)."""

from __future__ import annotations

from typing import List, Tuple

from ..netsim.simulation import SimulationResult


def queue_depth_series(result: SimulationResult) -> List[Tuple[float, int]]:
    """(time, queue depth in packets) samples recorded at the gateway."""
    return list(result.monitor.queue_depth)


def max_queue_depth(result: SimulationResult) -> int:
    depths = [depth for _, depth in result.monitor.queue_depth]
    return max(depths) if depths else 0

