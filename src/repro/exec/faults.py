"""Structured evaluation failures and the fault-tolerance policy.

The exec layer's core contract is that ``evaluate_batch`` always returns one
:data:`~repro.exec.workers.EvaluationOutcome` per job, in input order.  This
module extends that contract to misbehaving evaluations: instead of letting
an exception (or a dead pool worker) abort the whole batch, every failure is
folded into a *failure outcome* — a deterministic penalty :class:`Score`
plus a ``summary["failure"]`` record describing what happened.  Failure
outcomes flow through the coalescing cache, the GA and the journal exactly
like healthy ones, which is what keeps faulted campaigns resumable and
fleet-replayable bit-identically.

Failure taxonomy (``EvaluationFailure.kind``):

``crash``
    The evaluation raised.  Deterministic (the simulator consumes no
    randomness), so the job is quarantined immediately.
``garbage``
    The evaluation returned something that is not a ``(Score, summary)``
    pair with a finite total.  Deterministic; quarantined immediately.
``timeout``
    The job exceeded ``FaultPolicy.job_timeout`` wall-clock seconds in a
    pool worker and the worker was killed.  Treated as deterministic
    (a hang re-hangs) and quarantined.
``worker-death``
    The pool worker evaluating the job died (hard exit, OOM kill, pool
    breakage).  Ambiguous: retried up to ``max_retries`` times with
    exponential backoff, and quarantined only once retries are exhausted —
    at that point the job is a persistent worker-killer.
``quarantined``
    The job matched an existing quarantine entry and was refused without
    executing.  Never re-quarantined.
"""

from __future__ import annotations

import math
import os
import time
import traceback
from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from ..scoring.base import Score
from .cache import factory_identity
from .workers import EvaluationJob, EvaluationOutcome, evaluate_job

#: All values ``EvaluationFailure.kind`` may take.
FAILURE_KINDS = ("crash", "garbage", "timeout", "worker-death", "quarantined")

#: Fitness assigned to failure outcomes: far below anything a real
#: evaluation produces, so faulted traces never win selection or harvest.
PENALTY_FITNESS = -1e9

#: Delay before the first retry of a ``worker-death``; it doubles per retry
#: up to :data:`BACKOFF_MAX_S`.
BACKOFF_BASE_S = 0.05
BACKOFF_MAX_S = 1.0

#: Exit status of a process an injected ``exit`` fault kills.
CHAOS_EXIT_CODE = 23


@dataclass(frozen=True)
class EvaluationFailure:
    """What went wrong with one evaluation, in journal-serializable form."""

    kind: str
    message: str
    fingerprint: str
    cca: str
    attempts: int = 1
    quarantined: bool = False

    def __post_init__(self) -> None:
        if self.kind not in FAILURE_KINDS:
            raise ValueError(f"unknown failure kind {self.kind!r}; expected one of {FAILURE_KINDS}")

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "kind": self.kind,
            "message": self.message,
            "fingerprint": self.fingerprint,
            "cca": self.cca,
            "attempts": self.attempts,
        }
        if self.quarantined:
            payload["quarantined"] = True
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EvaluationFailure":
        return cls(
            kind=str(payload["kind"]),
            message=str(payload.get("message", "")),
            fingerprint=str(payload.get("fingerprint", "unknown")),
            cca=str(payload.get("cca", "unknown")),
            attempts=int(payload.get("attempts", 1)),
            quarantined=bool(payload.get("quarantined", False)),
        )

    def with_attempts(self, attempts: int) -> "EvaluationFailure":
        return replace(self, attempts=attempts)


@dataclass
class FaultPolicy:
    """How a backend treats evaluations that fail.

    The default policy (no timeout, two retries, no quarantine store) makes
    failures visible without any persistence; campaigns attach a
    :class:`~repro.exec.quarantine.QuarantineStore` so deterministic
    crashers are refused on every later encounter, including after resume.
    """

    job_timeout: Optional[float] = None
    max_retries: int = 2
    quarantine: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.job_timeout is not None and not self.job_timeout > 0:
            raise ValueError("job_timeout must be positive (or None to disable)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")


def backoff_s(attempts: int) -> float:
    """Delay before retry number ``attempts`` (1-based), capped."""
    return min(BACKOFF_BASE_S * (2 ** max(0, attempts - 1)), BACKOFF_MAX_S)


def job_fingerprint(job: EvaluationJob) -> str:
    """The trace fingerprint chaos plans and quarantine entries key on."""
    try:
        return job.trace.fingerprint()
    except Exception:  # a trace broken enough to not fingerprint
        return "unknown"


def job_cca(job: EvaluationJob) -> str:
    """The CCA identity recorded in failure provenance."""
    try:
        return factory_identity(job.cca_factory)
    except Exception:  # the factory itself may be the thing that crashes
        return "unknown"


def describe_exception(exc: BaseException) -> str:
    """Deterministic one-line description: type, message, raise site."""
    text = f"{type(exc).__name__}: {exc}"
    tb = traceback.extract_tb(exc.__traceback__)
    if tb:
        frame = tb[-1]
        text += f" (raised at {os.path.basename(frame.filename)}:{frame.lineno} in {frame.name})"
    return text


def outcome_shape_error(outcome: Any) -> Optional[str]:
    """Why ``outcome`` is not a valid ``(Score, summary)`` pair, or ``None``."""
    if not isinstance(outcome, tuple) or len(outcome) != 2:
        return f"outcome is {type(outcome).__name__}, not a (score, summary) pair"
    score, summary = outcome
    if not isinstance(score, Score):
        return f"score is {type(score).__name__}, not a Score"
    if not all(
        isinstance(part, (int, float)) and math.isfinite(part)
        for part in (score.total, score.performance, score.trace)
    ):
        return "score components are not finite numbers"
    if not isinstance(summary, dict):
        return f"summary is {type(summary).__name__}, not a dict"
    return None


class _ChaosCrash(RuntimeError):
    """The exception an injected ``crash`` fault raises."""


def guarded_evaluate(
    job: EvaluationJob,
    chaos: Optional[Any] = None,
    *,
    allow_exit: bool = True,
) -> Tuple[str, Any]:
    """Evaluate one job, converting every failure into structured data.

    Returns ``("ok", outcome)`` or ``("fail", EvaluationFailure)``; never
    raises for anything an evaluation does (only ``BaseException`` escapes,
    e.g. ``KeyboardInterrupt``).  ``chaos`` is a :class:`ChaosPlan` (or any
    object with ``fault_for``) consulted before evaluating.  ``allow_exit``
    is False for in-process backends, which downgrade a ``hang``/``exit``
    fault to a crash rather than wedging or killing the host process — the
    documented limitation of running untrusted evaluations without process
    isolation.
    """
    fingerprint = job_fingerprint(job)
    fault = chaos.fault_for(fingerprint) if chaos is not None else None
    if fault == "exit" and allow_exit:
        # No unwinding, no cleanup: mimics a segfault or the OOM killer.
        os._exit(CHAOS_EXIT_CODE)
    if fault == "hang" and allow_exit:
        time.sleep(getattr(chaos, "hang_s", 3600.0))
    try:
        if fault in ("crash", "exit", "hang") and (fault == "crash" or not allow_exit):
            raise _ChaosCrash(f"chaos: injected {fault} for {fingerprint}")
        if fault == "garbage":
            outcome: Any = ("chaos-garbage", None)
        else:
            outcome = evaluate_job(job)
    except Exception as exc:
        return "fail", EvaluationFailure(
            kind="crash",
            message=describe_exception(exc),
            fingerprint=fingerprint,
            cca=job_cca(job),
        )
    problem = outcome_shape_error(outcome)
    if problem is not None:
        return "fail", EvaluationFailure(
            kind="garbage",
            message=problem,
            fingerprint=fingerprint,
            cca=job_cca(job),
        )
    return "ok", outcome


def failure_outcome(failure: EvaluationFailure) -> EvaluationOutcome:
    """Fold a failure into the outcome shape the rest of the system expects.

    The penalty score is deterministic and carries no wall-clock data, so a
    failure outcome is bit-identical across runs, backends and resumes —
    it caches, journals and digests like any healthy outcome.
    """
    score = Score(total=PENALTY_FITNESS, performance=PENALTY_FITNESS, trace=0.0)
    return score, {"failure": failure.to_dict()}


def failure_from_summary(summary: Mapping[str, Any]) -> Optional[EvaluationFailure]:
    """Recover the failure record from an outcome summary, if it is one."""
    payload = summary.get("failure") if isinstance(summary, Mapping) else None
    if not isinstance(payload, Mapping):
        return None
    try:
        return EvaluationFailure.from_dict(payload)
    except (KeyError, ValueError, TypeError):
        return None
