"""Discrete-event network simulation substrate (the NS3 replacement).

Public surface: the event scheduler, the dumbbell topology components
(fixed-rate and trace-driven bottleneck links, each owning its drop-tail
gateway queue), per-flow monitoring and the :func:`run_simulation` entry
point.
"""

from .engine import EventScheduler, FifoLane, LazyTimer
from .link import FixedRateLink, TraceDrivenLink, mbps_to_pps, pps_to_mbps
from .monitor import FlowMonitor
from .packet import AckPacket, CCA_FLOW, CROSS_FLOW, MSS_BYTES, Packet, SackBlock
from .simulation import (
    SimulationConfig,
    SimulationResult,
    SimulationTruncated,
    run_simulation,
)
from .topology import DumbbellTopology

__all__ = [
    "AckPacket",
    "CCA_FLOW",
    "CROSS_FLOW",
    "DumbbellTopology",
    "EventScheduler",
    "FifoLane",
    "FixedRateLink",
    "FlowMonitor",
    "LazyTimer",
    "MSS_BYTES",
    "Packet",
    "SackBlock",
    "SimulationConfig",
    "SimulationResult",
    "SimulationTruncated",
    "TraceDrivenLink",
    "mbps_to_pps",
    "pps_to_mbps",
    "run_simulation",
]
