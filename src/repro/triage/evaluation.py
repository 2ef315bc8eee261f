"""The minimizer's scoring interface.

Triage generates large batches of *candidate* evaluations — reduced traces
from the minimizer, perturbed configurations from the robustness validator,
per-CCA runs from the differential comparator — and pushes every one of them
through a shared :class:`~repro.exec.Evaluator` (so triage parallelizes and
memoizes exactly like the GA).

:class:`TraceScorer` is the narrow interface the minimizer consumes: a batch
of traces in, one fitness per trace out, with the ``(CCA, simulation config,
score function)`` context fixed.  Tests substitute a cheap structural scorer
here to exercise minimization logic without the simulator.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..exec.batch import Evaluator
from ..exec.workers import EvaluationJob, EvaluationOutcome
from ..netsim.simulation import CcaFactory, SimulationConfig
from ..scoring.base import ScoreFunction
from ..traces.trace import PacketTrace


class TraceScorer:
    """Scores trace batches in one fixed (CCA, sim config, objective) context.

    This is the full interface the minimizer needs; anything with a matching
    ``scores`` method (e.g. a cheap structural scorer in tests) can stand in.
    """

    def __init__(
        self,
        cca_factory: CcaFactory,
        sim_config: SimulationConfig,
        score_function: ScoreFunction,
        evaluator: Optional[Evaluator] = None,
    ) -> None:
        self.cca_factory = cca_factory
        self.sim_config = sim_config
        self.score_function = score_function
        self.evaluator = evaluator or Evaluator()

    def outcomes(self, traces: Sequence[PacketTrace]) -> List[EvaluationOutcome]:
        jobs = [
            EvaluationJob(self.cca_factory, self.sim_config, trace, self.score_function)
            for trace in traces
        ]
        return self.evaluator.evaluate(jobs)

    def scores(self, traces: Sequence[PacketTrace]) -> List[float]:
        """One fitness value per trace (higher = worse CCA = better attack)."""
        return [score.total for score, _ in self.outcomes(traces)]
