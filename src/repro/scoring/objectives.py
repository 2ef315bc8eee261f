"""Named fuzzing objectives.

An *objective* is a shorthand for a full :class:`ScoreFunction`: which
performance score the search maximises, plus the minimality trace score that
traffic mode adds as a tie-breaker.  The CLI, the campaign subsystem and the
tests all resolve objectives through this module so "throughput" means the
same scoring configuration everywhere (and therefore hashes to the same
cache/score fingerprint).
"""

from __future__ import annotations

from .base import ScoreFunction
from .performance import HighDelayScore, HighLossScore, LowUtilizationScore
from .trace_score import MinimalTrafficScore

#: Objective names accepted by ``--objective`` and campaign specs.
OBJECTIVES = ("throughput", "delay", "loss")

#: The objective of a search that names none, and of corpus entries that
#: carry none (builtin attacks): the paper's low-utilisation score.
DEFAULT_OBJECTIVE = "throughput"


def make_score_function(objective: str, mode: str) -> ScoreFunction:
    """Build the score function for an objective/mode pair.

    ``objective`` picks the performance component ("throughput" rewards *low*
    utilisation, "delay" high queueing delay, "loss" high loss); traffic mode
    adds the minimal-trace score with a small weight so minimality breaks
    ties without competing with the Mbps-scale performance component.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    performance = {
        "throughput": LowUtilizationScore(),
        "delay": HighDelayScore(),
        "loss": HighLossScore(),
    }[objective]
    trace_score = MinimalTrafficScore() if mode == "traffic" else None
    return ScoreFunction(performance=performance, trace=trace_score, trace_weight=1e-3)
