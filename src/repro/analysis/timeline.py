"""Mechanism-level analysis of the BBR stall (paper Fig. 4c).

Figure 4c of the paper is a timeline showing how an RTO, spurious
retransmissions and in-flight SACKs interact to corrupt BBR's probing rounds
and collapse its bandwidth estimate.  This module extracts the observable
evidence of that mechanism from a finished run:

* RTO events (sender) and spurious retransmissions (duplicate arrivals at
  the receiver),
* premature probe-round endings (rounds closed by a sample anchored on a
  retransmitted segment) and the bandwidth estimate's peak and final values
  (BBR diagnostics),
* delivery stalls (monitor egress gaps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..netsim.packet import CCA_FLOW
from ..netsim.simulation import SimulationResult


@dataclass
class BbrBugEvidence:
    """Observable footprint of the section-4.1 BBR bug in one run."""

    rto_count: int
    spurious_retransmissions: int
    premature_round_ends: int
    final_bandwidth_estimate_pps: float
    peak_bandwidth_estimate_pps: float
    longest_stall_s: float
    throughput_mbps: float

    def as_dict(self) -> Dict[str, object]:
        return dict(self.__dict__)


def bbr_bug_evidence(result: SimulationResult) -> BbrBugEvidence:
    """Summarise the evidence of the section-4.1 stall in one run (whether it
    amounts to the stall is :mod:`.findings`' ``bbr-stall`` rule).

    The bandwidth estimate's peak and final values are BBR's ``peak_btlbw``
    and ``btlbw`` diagnostics (0 for a CCA that keeps no estimate).
    """
    diag = result.cca_diagnostics
    return BbrBugEvidence(
        rto_count=result.sender_stats.rto_count,
        spurious_retransmissions=result.spurious_retransmissions,
        premature_round_ends=int(diag.get("premature_round_ends", 0)),
        final_bandwidth_estimate_pps=float(diag.get("btlbw", 0.0)),
        peak_bandwidth_estimate_pps=float(diag.get("peak_btlbw", 0.0)),
        longest_stall_s=result.monitor.max_egress_gap(CCA_FLOW, result.duration),
        throughput_mbps=result.throughput_mbps(),
    )


def describe_bug_timeline(evidence: BbrBugEvidence) -> str:
    """Human-readable narration of the Fig. 4c mechanism for one run."""
    lines = [
        "BBR stall mechanism evidence (paper Fig. 4c):",
        f"  1. retransmission timeouts fired: {evidence.rto_count}",
        f"  2. spurious retransmissions (segments the receiver already had): "
        f"{evidence.spurious_retransmissions}",
        f"  3. probing rounds ended prematurely by retransmission-anchored samples: "
        f"{evidence.premature_round_ends}",
        f"  4. bandwidth estimate collapsed from {evidence.peak_bandwidth_estimate_pps:.0f} "
        f"to {evidence.final_bandwidth_estimate_pps:.0f} packets/s",
        f"  5. longest delivery stall: {evidence.longest_stall_s:.2f} s",
        f"  resulting throughput: {evidence.throughput_mbps:.2f} Mbps",
    ]
    return "\n".join(lines)
