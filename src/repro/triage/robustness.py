"""Attack-robustness validation over a perturbation matrix.

A trace that only wins under the exact conditions the GA searched is easy to
over-trust (the benchmarking literature's core complaint about adversarial
CC findings).  The validator re-scores an attack across a matrix of
perturbed runs — RTT, bandwidth and queue-capacity jitter, time-shifted
copies of the trace, and staggered sender start times — and reports which
fraction of the matrix the attack survives.

The simulator is deterministic and consumes no randomness, so "different
seeds" are realised as sender start-time offsets: each offset changes the
phase relationship between the flow under test and the trace, which is
exactly the run-to-run variation a testbed would produce.

Every cell is one :class:`~repro.exec.EvaluationJob`; the whole matrix goes
to the backend as a single batch, so a process pool evaluates the matrix in
parallel just like a GA generation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..exec.batch import Evaluator
from ..exec.workers import EvaluationJob
from ..netsim.simulation import CcaFactory, SimulationConfig
from ..scoring.base import ScoreFunction
from ..traces.trace import LinkTrace, PacketTrace
from .minimize import observed_retention, retention_floor


def shift_trace(trace: PacketTrace, delta: float) -> PacketTrace:
    """Cyclically shift every event by ``delta`` seconds (mod duration).

    Cyclic (rather than clamped) shifting preserves the event count, so
    shifted link traces keep their bandwidth budget and shifted traffic
    traces their packet budget.
    """
    duration = trace.duration
    return trace.with_timestamps(sorted((t + delta) % duration for t in trace.timestamps))


@dataclass
class RobustnessConfig:
    """The perturbation matrix and the survival criterion."""

    bandwidth_factors: Tuple[float, ...] = (0.8, 0.9, 1.1, 1.25)
    rtt_factors: Tuple[float, ...] = (0.5, 1.5, 2.0)
    queue_factors: Tuple[float, ...] = (0.5, 0.75, 1.5)
    time_shifts: Tuple[float, ...] = (-0.1, 0.05, 0.1)          #: seconds
    sender_start_offsets: Tuple[float, ...] = (0.05, 0.1, 0.2)  #: the "seeds"
    retention: float = 0.7                 #: score fraction a cell must keep

    def __post_init__(self) -> None:
        if not 0.0 < self.retention <= 1.0:
            raise ValueError("retention must be in (0, 1]")
        for factors in (self.bandwidth_factors, self.rtt_factors, self.queue_factors):
            if any(f <= 0 for f in factors):
                raise ValueError("perturbation factors must be positive")

    def cell_count(self) -> int:
        return (
            len(self.bandwidth_factors)
            + len(self.rtt_factors)
            + len(self.queue_factors)
            + len(self.time_shifts)
            + len(self.sender_start_offsets)
        )


@dataclass
class RobustnessCell:
    """One perturbed run: what changed, how the attack scored, did it hold."""

    dimension: str
    label: str
    score: float
    retention: float                       #: observed score retention vs baseline
    held: bool

    def as_dict(self) -> Dict[str, Any]:
        return {
            "dimension": self.dimension,
            "label": self.label,
            "score": self.score,
            "retention": round(self.retention, 4),
            "held": self.held,
        }


@dataclass
class RobustnessReport:
    """Survival of one attack across the whole perturbation matrix."""

    baseline_score: float
    retention_bound: float
    cells: List[RobustnessCell] = field(default_factory=list)

    @property
    def robustness_score(self) -> float:
        """Fraction of perturbed cells where the attack held (0..1)."""
        if not self.cells:
            return 1.0
        return sum(1 for cell in self.cells if cell.held) / len(self.cells)

    def by_dimension(self) -> Dict[str, Dict[str, Any]]:
        """Per-dimension breakdown: held/total and the worst observed cell."""
        grouped: Dict[str, List[RobustnessCell]] = {}
        for cell in self.cells:
            grouped.setdefault(cell.dimension, []).append(cell)
        breakdown: Dict[str, Dict[str, Any]] = {}
        for dimension in sorted(grouped):
            cells = grouped[dimension]
            worst = min(cells, key=lambda c: c.retention)
            breakdown[dimension] = {
                "held": sum(1 for c in cells if c.held),
                "total": len(cells),
                "worst_label": worst.label,
                "worst_retention": round(worst.retention, 4),
            }
        return breakdown

    def to_dict(self) -> Dict[str, Any]:
        return {
            "baseline_score": self.baseline_score,
            "retention_bound": self.retention_bound,
            "robustness_score": round(self.robustness_score, 4),
            "by_dimension": self.by_dimension(),
            "cells": [cell.as_dict() for cell in self.cells],
        }


def _scaled_queue(capacity: int, factor: float) -> int:
    return max(1, int(round(capacity * factor)))


def validate_robustness(
    trace: PacketTrace,
    cca_factory: CcaFactory,
    sim_config: SimulationConfig,
    score_function: ScoreFunction,
    *,
    evaluator: Optional[Evaluator] = None,
    config: Optional[RobustnessConfig] = None,
) -> RobustnessReport:
    """Score ``trace`` across the perturbation matrix around ``sim_config``."""
    config = config or RobustnessConfig()
    evaluator = evaluator or Evaluator()

    cells: List[Tuple[str, str, PacketTrace, SimulationConfig]] = []
    if not isinstance(trace, LinkTrace):
        # A link trace IS the service curve: the simulator never reads
        # bottleneck_rate_mbps when one is supplied, so bandwidth cells
        # would silently replicate the baseline and inflate the score.
        for factor in config.bandwidth_factors:
            cells.append(
                (
                    "bandwidth",
                    f"x{factor:g}",
                    trace,
                    sim_config.with_overrides(
                        bottleneck_rate_mbps=sim_config.bottleneck_rate_mbps * factor
                    ),
                )
            )
    for factor in config.rtt_factors:
        cells.append(
            (
                "rtt",
                f"x{factor:g}",
                trace,
                sim_config.with_overrides(
                    propagation_delay=sim_config.propagation_delay * factor
                ),
            )
        )
    for factor in config.queue_factors:
        cells.append(
            (
                "queue",
                f"x{factor:g}",
                trace,
                sim_config.with_overrides(
                    queue_capacity=_scaled_queue(sim_config.queue_capacity, factor)
                ),
            )
        )
    for delta in config.time_shifts:
        cells.append(("time_shift", f"{delta:+g}s", shift_trace(trace, delta), sim_config))
    for offset in config.sender_start_offsets:
        cells.append(
            (
                "sender_start",
                f"+{offset:g}s",
                trace,
                sim_config.with_overrides(
                    sender_start_time=sim_config.sender_start_time + offset
                ),
            )
        )

    # Baseline first, then every perturbed cell, all in one backend batch.
    jobs = [EvaluationJob(cca_factory, sim_config, trace, score_function)]
    jobs.extend(
        EvaluationJob(cca_factory, cell_config, cell_trace, score_function)
        for _, _, cell_trace, cell_config in cells
    )
    outcomes = evaluator.evaluate(jobs)
    baseline = outcomes[0][0].total
    floor = retention_floor(baseline, config.retention)

    report = RobustnessReport(baseline_score=baseline, retention_bound=config.retention)
    for (dimension, label, _, _), (score, _) in zip(cells, outcomes[1:]):
        report.cells.append(
            RobustnessCell(
                dimension=dimension,
                label=label,
                score=score.total,
                retention=observed_retention(baseline, score.total),
                held=score.total >= floor,
            )
        )
    return report
