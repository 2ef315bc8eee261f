"""Picklable evaluation units for the parallel backends.

A worker evaluates one :class:`EvaluationJob` — ``(cca factory, simulation
config, trace, score function)`` — and returns ``(Score, result summary)``.
Everything here is defined at module top level so jobs can cross a
``multiprocessing`` pickle boundary: the CCA factory must itself be picklable
(a class, a top-level function or a :func:`functools.partial` of one — never
a lambda or closure).

The simulator consumes no random numbers, so a job's outcome depends only on
its fields; evaluating the same job in any process, in any order, yields a
bit-identical result.  All GA randomness (mutation, crossover, selection)
stays in the coordinating process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from ..coverage.signature import extract_signature
from ..netsim.simulation import CcaFactory, SimulationConfig, simulate_packet_trace
from ..scoring.base import Score, ScoreFunction
from ..traces.trace import PacketTrace

#: What one evaluation produces: the fitness plus a compact result summary.
EvaluationOutcome = Tuple[Score, Dict[str, Any]]


@dataclass(frozen=True)
class EvaluationJob:
    """One unit of work: simulate ``trace`` against ``cca_factory`` and score it."""

    cca_factory: CcaFactory
    sim_config: SimulationConfig
    trace: PacketTrace
    score_function: ScoreFunction


def evaluate_job(job: EvaluationJob) -> EvaluationOutcome:
    """Worker entry point: simulate, score, summarise.

    Returns only small picklable values (a frozen :class:`Score` and a plain
    dict) — never the full :class:`SimulationResult`, whose per-packet series
    would dominate inter-process transfer cost.  The summary carries the
    run's behavior signature, so coverage guidance and corpus annotation
    work from cached outcomes without re-simulating.
    """
    result = simulate_packet_trace(job.cca_factory, job.sim_config, job.trace)
    score = job.score_function(result, job.trace)
    summary = result.summary()
    summary["behavior_signature"] = extract_signature(result).to_dict()
    return score, summary
