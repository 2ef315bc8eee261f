"""Parallel + memoized trace evaluation.

This subsystem decouples *what* the GA evaluates (an :class:`EvaluationJob`)
from *how* batches are executed (an :class:`EvaluationBackend`) and *whether*
an evaluation needs to run at all (a :class:`TraceCache`).  The fuzzer batches
every unevaluated individual across all islands each generation and hands the
cache misses to the configured backend.

Evaluations are allowed to fail: the guarded execution path converts
crashes, garbage returns, timeouts and worker deaths into deterministic
failure outcomes (see :mod:`repro.exec.faults`), deterministic crashers are
quarantined (:mod:`repro.exec.quarantine`), and :mod:`repro.exec.chaos`
injects such faults on purpose for testing.
"""
