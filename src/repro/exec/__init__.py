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

from .backend import (
    BACKENDS,
    EvaluationBackend,
    ProcessPoolBackend,
    SerialBackend,
    create_backend,
)
from .batch import Evaluator
from .cache import (
    OUTCOME_SCHEMA,
    CacheKey,
    TraceCache,
    cca_identity,
    factory_identity,
    job_cache_key,
    make_cache_key,
)
from .chaos import CHAOS_KINDS, ChaosPlan, active_plan, chaos_injection, clear_chaos, install_chaos
from .faults import (
    FAILURE_KINDS,
    PENALTY_FITNESS,
    EvaluationFailure,
    FaultPolicy,
    failure_from_summary,
    failure_outcome,
    guarded_evaluate,
)
from .quarantine import QUARANTINE_FILENAME, QuarantineStore, read_quarantine_entries
from .workers import EvaluationJob, EvaluationOutcome, evaluate_job, simulate_packet_trace

__all__ = [
    "BACKENDS",
    "CHAOS_KINDS",
    "CacheKey",
    "ChaosPlan",
    "EvaluationBackend",
    "EvaluationFailure",
    "EvaluationJob",
    "EvaluationOutcome",
    "Evaluator",
    "FAILURE_KINDS",
    "FaultPolicy",
    "OUTCOME_SCHEMA",
    "PENALTY_FITNESS",
    "ProcessPoolBackend",
    "QUARANTINE_FILENAME",
    "QuarantineStore",
    "SerialBackend",
    "TraceCache",
    "active_plan",
    "cca_identity",
    "chaos_injection",
    "clear_chaos",
    "create_backend",
    "evaluate_job",
    "factory_identity",
    "failure_from_summary",
    "failure_outcome",
    "guarded_evaluate",
    "install_chaos",
    "job_cache_key",
    "make_cache_key",
    "read_quarantine_entries",
    "simulate_packet_trace",
]
