"""Realism scoring of traces using multiple CCAs (paper section 5, Fig. 5).

The idea: a network trace is "realistic" if at least a few well-known CCAs
can perform reasonably on it.  A trace with, say, very low bandwidth early
and high bandwidth later makes *every* CCA look bad — low throughput on such
a trace says nothing about the CCA under test, so the trace should be
rejected.  The realism score is the aggregate utilisation achieved by a panel
of reference CCAs; traces below a threshold are deemed unrealistic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..netsim.simulation import SimulationConfig, SimulationResult, simulate_packet_trace
from ..tcp.cca.base import CongestionControl
from ..tcp.cca.bbr import Bbr
from ..tcp.cca.cubic import Cubic
from ..tcp.cca.reno import Reno
from ..traces.trace import PacketTrace
from .windowed import top_fraction_mean

CcaFactory = Callable[[], CongestionControl]


def default_reference_panel() -> Dict[str, CcaFactory]:
    """The reference CCAs used to judge realism (Reno, CUBIC, BBR)."""
    return {"reno": Reno, "cubic": Cubic, "bbr": Bbr}


@dataclass
class RealismReport:
    """Realism assessment of one trace."""

    trace: PacketTrace
    per_cca_utilization: Dict[str, float]
    score: float
    threshold: float

    @property
    def is_realistic(self) -> bool:
        return self.score >= self.threshold


class RealismScorer:
    """Scores traces by how well a panel of reference CCAs performs on them.

    Parameters
    ----------
    panel:
        Mapping of name -> CCA factory; defaults to Reno/CUBIC/BBR.
    config:
        Simulation configuration used for the reference runs.
    top_fraction:
        The realism score is the mean utilisation of the best ``top_fraction``
        of panel members ("at least a few algorithms perform well"); with the
        default 0.5 and a three-CCA panel this is the mean of the best two.
    threshold:
        Minimum score for a trace to be considered realistic.
    """

    def __init__(
        self,
        panel: Optional[Dict[str, CcaFactory]] = None,
        config: Optional[SimulationConfig] = None,
        top_fraction: float = 0.5,
        threshold: float = 0.6,
    ) -> None:
        self.panel = default_reference_panel() if panel is None else dict(panel)
        if not self.panel:
            raise ValueError("realism panel must contain at least one CCA")
        self.config = config or SimulationConfig()
        self.top_fraction = top_fraction
        self.threshold = threshold

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #

    def _achievable_utilization(self, trace: PacketTrace, result: SimulationResult) -> float:
        """Utilisation relative to what the trace makes achievable."""
        if trace.mode == "link":
            available_mbps = trace.average_rate_mbps
        else:
            # Cross traffic competes for the fixed-rate bottleneck; the flow
            # can at best use what the cross traffic leaves behind.
            cross_share = (
                trace.packet_count * trace.mss_bytes * 8.0 / trace.duration / 1e6
            )
            available_mbps = max(self.config.bottleneck_rate_mbps - cross_share, 0.1)
        return min(result.throughput_mbps() / available_mbps, 1.5)

    def score(self, trace: PacketTrace) -> RealismReport:
        """Run the panel on ``trace`` and compute its realism score."""
        if trace.mode not in ("link", "traffic"):
            # "Achievable" is defined by the bandwidth a trace leaves the
            # flow; a loss schedule (or an untyped trace) leaves it all.
            raise TypeError(f"realism scoring does not support {type(trace).__name__}")
        per_cca: Dict[str, float] = {}
        for name, factory in self.panel.items():
            result = simulate_packet_trace(factory, self.config, trace)
            per_cca[name] = self._achievable_utilization(trace, result)
        score = top_fraction_mean(list(per_cca.values()), self.top_fraction)
        return RealismReport(
            trace=trace,
            per_cca_utilization=per_cca,
            score=score,
            threshold=self.threshold,
        )

    def partition(self, traces: Sequence[PacketTrace]) -> Dict[str, List[RealismReport]]:
        """Split traces into realistic ("valid") and unrealistic ("invalid") sets."""
        reports = [self.score(trace) for trace in traces]
        return {
            "valid": [r for r in reports if r.is_realistic],
            "invalid": [r for r in reports if not r.is_realistic],
        }
