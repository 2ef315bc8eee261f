"""Flow-level metrics derived from a simulation result."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..netsim.packet import CCA_FLOW
from ..netsim.simulation import SimulationResult
from ..scoring.windowed import percentile


@dataclass
class FlowMetrics:
    """Headline performance metrics for the flow under test."""

    cca: str
    duration: float
    throughput_mbps: float
    utilization: float
    mean_queueing_delay_ms: float
    p95_queueing_delay_ms: float
    p10_queueing_delay_ms: float
    loss_rate: float
    retransmission_ratio: float
    rto_count: int
    spurious_retransmissions: int
    longest_stall_s: float
    segments_delivered: int
    cross_traffic_packets: int

    def as_dict(self) -> Dict[str, object]:
        return dict(self.__dict__)


def compute_metrics(result: SimulationResult) -> FlowMetrics:
    """Compute :class:`FlowMetrics` for the CCA flow of a finished run."""
    delays = [d for _, d in result.queueing_delays(CCA_FLOW)]
    sent = max(result.sender_stats.segments_sent, 1)
    return FlowMetrics(
        cca=result.cca_name,
        duration=result.duration,
        throughput_mbps=result.throughput_mbps(),
        utilization=result.utilization(),
        mean_queueing_delay_ms=1000.0 * (sum(delays) / len(delays)) if delays else 0.0,
        p95_queueing_delay_ms=1000.0 * percentile(delays, 95.0),
        p10_queueing_delay_ms=1000.0 * percentile(delays, 10.0),
        loss_rate=result.loss_rate(CCA_FLOW),
        retransmission_ratio=result.sender_stats.retransmissions / sent,
        rto_count=result.sender_stats.rto_count,
        spurious_retransmissions=result.spurious_retransmissions,
        longest_stall_s=result.monitor.max_egress_gap(CCA_FLOW, result.duration),
        segments_delivered=result.delivered_segments(CCA_FLOW),
        cross_traffic_packets=result.cross_sent,
    )

