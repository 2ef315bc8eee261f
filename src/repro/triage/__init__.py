"""Attack triage: turn raw fuzzing winners into minimal, validated evidence.

A GA winner is a starting point, not a finding.  This subsystem distills it
into the paper's actual deliverable through three cooperating engines, all
batching their candidate evaluations through the shared
:class:`~repro.exec.backend.EvaluationBackend` / :class:`~repro.exec.cache.TraceCache`
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
