"""Trace scores: implicit constraints on the traces themselves.

The paper (section 3.4) scores traffic traces with the negation of the total
cross-traffic packet count and the number of cross-traffic packets dropped,
pushing the search toward *minimal* injection vectors: bursts that would be
dropped anyway, or packets sent while the CCA is idle, add cost without
adding effect and are bred out.
"""

from __future__ import annotations

from typing import Optional

from ..netsim.packet import CROSS_FLOW
from ..netsim.simulation import SimulationResult
from ..traces.trace import PacketTrace, TrafficTrace
from .base import TraceScore


class MinimalTrafficScore(TraceScore):
    """Penalises large or wasteful cross-traffic injection vectors."""

    name = "minimal_traffic"

    def __init__(self, packet_weight: float = 1.0, drop_weight: float = 1.0) -> None:
        self.packet_weight = packet_weight
        self.drop_weight = drop_weight

    def __call__(self, trace: PacketTrace, result: Optional[SimulationResult] = None) -> float:
        if not isinstance(trace, TrafficTrace):
            return 0.0
        dropped = 0
        if result is not None:
            dropped = result.queue_drops.get(CROSS_FLOW, 0)
        return -(self.packet_weight * trace.packet_count + self.drop_weight * dropped)
