"""Differential CCA comparison: is an attack CCA-specific or generic?

The same trace is replayed against every registered CCA variant
(:data:`~repro.tcp.cca.CCA_FACTORIES`) under one simulation config and one
objective, so all scores share a scale and rank directly.  The report ranks
per-CCA vulnerability and classifies the attack:

* ``generic`` — every CCA is (nearly) equally hurt; the trace exploits the
  *network*, not an algorithm (e.g. simple link saturation);
* ``cca-specific`` — exactly one CCA sits at the vulnerable end of the
  spread (the interesting case: an algorithmic bug, like the CUBIC slow
  start or BBR bandwidth-filter attacks);
* ``class-specific`` — several but not all CCAs are vulnerable (typically a
  mechanism shared by a family, e.g. loss-based window halving).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..exec.batch import Evaluator
from ..exec.workers import EvaluationJob
from ..netsim.simulation import SimulationConfig
from ..scoring.base import ScoreFunction
from ..tcp.cca import CCA_FACTORIES
from ..traces.trace import PacketTrace

VULNERABLE_THRESHOLD = 0.8                 #: normalized vulnerability cutoff
#: Spread below this fraction of the score magnitude means the CCAs are
#: "(nearly) equally hurt" — the attack is generic.  Relative, because
#: normalizing vulnerability by an arbitrarily tiny absolute spread would
#: always stretch one CCA to 1.0 and misread noise as specificity.
GENERIC_SPREAD_FRACTION = 0.05


@dataclass
class DifferentialConfig:
    """Which CCAs to panel."""

    ccas: Optional[Sequence[str]] = None   #: None = every registered factory

    def __post_init__(self) -> None:
        if self.ccas is not None:
            unknown = sorted(set(self.ccas) - set(CCA_FACTORIES))
            if unknown:
                known = ", ".join(sorted(CCA_FACTORIES))
                raise ValueError(f"unknown CCAs {unknown} (known: {known})")

    def cca_names(self) -> List[str]:
        return sorted(self.ccas) if self.ccas is not None else sorted(CCA_FACTORIES)


@dataclass
class DifferentialRow:
    """One CCA's outcome against the trace."""

    cca: str
    score: float
    vulnerability: float                   #: 0 (least hurt) .. 1 (most hurt)
    vulnerable: bool
    summary: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "cca": self.cca,
            "score": self.score,
            "vulnerability": round(self.vulnerability, 4),
            "vulnerable": self.vulnerable,
            "throughput_mbps": self.summary.get("throughput_mbps", "n/a"),
            "rto_count": self.summary.get("rto_count", "n/a"),
        }


@dataclass
class DifferentialReport:
    """Per-CCA ranking plus the specificity verdict."""

    rows: List[DifferentialRow]            #: most vulnerable first
    classification: str                    #: generic | cca-specific | class-specific
    spread: float                          #: max score - min score

    @property
    def most_vulnerable(self) -> str:
        return self.rows[0].cca

    @property
    def vulnerable_ccas(self) -> List[str]:
        return [row.cca for row in self.rows if row.vulnerable]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "classification": self.classification,
            "most_vulnerable": self.most_vulnerable,
            "vulnerable_ccas": self.vulnerable_ccas,
            "spread": self.spread,
            "rows": [row.as_dict() for row in self.rows],
        }


def compare_ccas(
    trace: PacketTrace,
    sim_config: SimulationConfig,
    score_function: ScoreFunction,
    *,
    evaluator: Optional[Evaluator] = None,
    config: Optional[DifferentialConfig] = None,
) -> DifferentialReport:
    """Replay ``trace`` against every CCA and rank per-CCA vulnerability.

    CCAs are evaluated in sorted-name order and ranked afterwards, so the
    report is a deterministic function of its inputs regardless of backend.
    """
    config = config or DifferentialConfig()
    evaluator = evaluator or Evaluator()
    names = config.cca_names()
    if not names:
        raise ValueError("differential comparison needs at least one CCA")

    jobs = [
        EvaluationJob(CCA_FACTORIES[name], sim_config, trace, score_function)
        for name in names
    ]
    outcomes = evaluator.evaluate(jobs)
    scores = {name: outcome[0].total for name, outcome in zip(names, outcomes)}
    summaries = {name: dict(outcome[1]) for name, outcome in zip(names, outcomes)}

    low = min(scores.values())
    high = max(scores.values())
    spread = high - low
    scale = max(abs(low), abs(high))
    negligible = spread <= GENERIC_SPREAD_FRACTION * scale

    def vulnerability(score: float) -> float:
        if negligible:
            return 1.0
        return (score - low) / spread

    rows = [
        DifferentialRow(
            cca=name,
            score=scores[name],
            vulnerability=vulnerability(scores[name]),
            vulnerable=vulnerability(scores[name]) >= VULNERABLE_THRESHOLD,
            summary=summaries[name],
        )
        for name in names
    ]
    # Most vulnerable first; exact ties keep name order for determinism.
    rows.sort(key=lambda row: (-row.score, row.cca))

    vulnerable_count = sum(1 for row in rows if row.vulnerable)
    if negligible or vulnerable_count == len(rows):
        classification = "generic"
    elif vulnerable_count == 1:
        classification = "cca-specific"
    else:
        classification = "class-specific"
    return DifferentialReport(rows=rows, classification=classification, spread=spread)
