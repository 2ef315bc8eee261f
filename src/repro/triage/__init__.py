"""Attack triage: turn raw fuzzing winners into minimal, validated evidence.

A GA winner is a starting point, not a finding.  This subsystem distills it
into the paper's actual deliverable through three cooperating engines, all
batching their candidate evaluations through the shared
:class:`~repro.exec.EvaluationBackend` / :class:`~repro.exec.TraceCache`
machinery:

* :mod:`minimize` — delta-debugging reduction: shrink a trace while keeping
  a configurable fraction of its attack score;
* :mod:`robustness` — re-score the attack across a perturbation matrix
  (bandwidth/RTT/queue jitter, time shifts, sender start offsets) and report
  how much of the matrix it survives;
* :mod:`differential` — replay the attack against every registered CCA and
  classify it as generic, class-specific or CCA-specific;
* :mod:`pipeline` — one-trace and whole-corpus orchestration, writing
  minimized variants back into the corpus with provenance links.
"""

from .differential import (
    DifferentialConfig,
    DifferentialReport,
    DifferentialRow,
    compare_ccas,
)
from .evaluation import TraceScorer
from .minimize import (
    MinimizationResult,
    MinimizeConfig,
    minimize_trace,
    observed_retention,
    retention_floor,
    split_bursts,
)
from .pipeline import (
    CorpusTriageResult,
    CorpusTriageRow,
    TriageConfig,
    TriageReport,
    triage_corpus,
    triage_trace,
)
from .robustness import (
    RobustnessCell,
    RobustnessConfig,
    RobustnessReport,
    shift_trace,
    validate_robustness,
)

__all__ = [
    "CorpusTriageResult",
    "CorpusTriageRow",
    "DifferentialConfig",
    "DifferentialReport",
    "DifferentialRow",
    "MinimizationResult",
    "MinimizeConfig",
    "RobustnessCell",
    "RobustnessConfig",
    "RobustnessReport",
    "TraceScorer",
    "TriageConfig",
    "TriageReport",
    "compare_ccas",
    "minimize_trace",
    "observed_retention",
    "retention_floor",
    "shift_trace",
    "split_bursts",
    "triage_corpus",
    "triage_trace",
    "validate_robustness",
]
