"""A fake evaluation backend shared by tests that bypass the simulator.

A helper module rather than a ``conftest.py`` resident: ``benchmarks/`` has a
``conftest.py`` of its own, and in a whole-repo run ``import conftest`` finds
whichever of the two pytest loaded last.
"""

from __future__ import annotations

from repro.exec import EvaluationBackend


class FunctionBackend(EvaluationBackend):
    """Scores each job's trace with ``function(trace) -> (Score, summary)``.

    The seam for driving the GA or an :class:`~repro.exec.Evaluator` without
    the simulator: everything above the backend (cache, coalescing,
    accounting, failure bookkeeping) is the real path.  ``calls`` counts the
    jobs actually executed.
    """

    name = "function"

    def __init__(self, function) -> None:
        super().__init__()
        self.function = function
        self.calls = 0

    def _run_jobs(self, jobs):
        self.calls += len(jobs)
        return [self.function(job.trace) for job in jobs]
