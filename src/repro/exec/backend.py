"""Evaluation backends: serial and supervised process pool.

A backend turns a batch of :class:`EvaluationJob` objects into their
outcomes, always **in input order** — callers rely on positional
correspondence, and order-independence is what keeps parallel runs
bit-identical to serial ones (scheduling may interleave, results may not).

Backend selection guidance:

* :class:`SerialBackend` — zero overhead; right for small populations and
  for debugging (tracebacks surface directly).
* :class:`ProcessPoolBackend` — real parallelism on a
  :class:`~repro.exec.supervisor.SupervisedProcessPool`; the win once
  ``population × islands`` dwarfs the per-process pickling cost, and the
  only backend that can kill hung jobs and survive hard-exiting ones.
  Requires picklable CCA factories.

Every backend runs jobs through the guarded evaluation path: an evaluation
that raises, returns garbage, times out or kills its worker produces a
deterministic *failure outcome* (penalty score + ``summary["failure"]``
metadata) instead of propagating — see :mod:`repro.exec.faults`.  A batch
never raises because of what one job did.  When the attached
:class:`~repro.exec.faults.FaultPolicy` carries a quarantine store,
deterministic crashers are recorded there and refused on every later
encounter without executing.

Pools are created lazily on first use, reused across generations, and
lazily restarted after :meth:`EvaluationBackend.close` (which is
idempotent); use the backend as a context manager to release workers.  A
serial campaign never loads :mod:`repro.exec.supervisor` or
``multiprocessing``: a ``process`` backend imports them when it builds its
pool, on its first batch, before it forks.
"""

from __future__ import annotations

import abc
import contextlib
import os
import threading
import time
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..obs.metrics import get_registry
from .cache import factory_identity
from .chaos import active_plan
from .faults import (
    EvaluationFailure,
    FaultPolicy,
    failure_outcome,
    guarded_evaluate,
    job_fingerprint,
)
from .workers import EvaluationJob, EvaluationOutcome

if TYPE_CHECKING:  # imported with the first pool: a serial run never loads multiprocessing
    from .supervisor import SupervisedProcessPool

#: Backend names accepted by :func:`create_backend` and the CLI.
BACKENDS = ("serial", "process")


def _default_workers() -> int:
    """One per CPU this process may run on: its affinity mask, where there is one."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)

#: Failure kinds that prove a job deterministically bad (quarantined on
#: first sight).  ``worker-death`` joins them only after retries exhaust.
_DETERMINISTIC_KINDS = ("crash", "garbage", "timeout")


class EvaluationBackend(abc.ABC):
    """Executes batches of evaluation jobs, preserving input order."""

    name: str = "abstract"

    def __init__(self, policy: Optional[FaultPolicy] = None) -> None:
        self.policy = policy if policy is not None else FaultPolicy()

    def evaluate_batch(self, jobs: Sequence[EvaluationJob]) -> List[EvaluationOutcome]:
        """Evaluate every job; ``result[i]`` corresponds to ``jobs[i]``.

        Template method: quarantined jobs are refused up front, the rest run
        on the concrete backend's :meth:`_run_jobs`, and failures among the
        results are counted and (when deterministic) quarantined.
        """
        jobs = list(jobs)
        if not jobs:
            return []
        with self._record_batch(len(jobs)):
            blocked = self._quarantine_precheck(jobs)
            if not blocked:
                outcomes = self._run_jobs(jobs)
            else:
                pending = [
                    (index, job) for index, job in enumerate(jobs) if index not in blocked
                ]
                executed = self._run_jobs([job for _, job in pending]) if pending else []
                outcomes = [None] * len(jobs)  # type: ignore[list-item]
                for (index, _), outcome in zip(pending, executed):
                    outcomes[index] = outcome
                for index, outcome in blocked.items():
                    outcomes[index] = outcome
            self._account_outcomes(outcomes)
            return outcomes

    @abc.abstractmethod
    def _run_jobs(self, jobs: List[EvaluationJob]) -> List[EvaluationOutcome]:
        """Evaluate non-quarantined jobs through the guarded path."""

    def _resolve(self, pair: Tuple[str, Any]) -> EvaluationOutcome:
        status, payload = pair
        if status == "ok":
            return payload
        return failure_outcome(payload)

    def _quarantine_precheck(
        self, jobs: Sequence[EvaluationJob]
    ) -> Dict[int, EvaluationOutcome]:
        """Failure outcomes for jobs the quarantine store refuses to run."""
        store = self.policy.quarantine
        if store is None or len(store) == 0:
            return {}
        blocked: Dict[int, EvaluationOutcome] = {}
        for index, job in enumerate(jobs):
            try:
                cca = factory_identity(job.cca_factory)
            except Exception:
                continue  # a crashing factory fails during execution instead
            entry = store.find(job_fingerprint(job), cca)
            if entry is None:
                continue
            refusal = EvaluationFailure(
                kind="quarantined",
                message=f"refused by quarantine ({entry.get('kind')}: {entry.get('message')})",
                fingerprint=str(entry.get("fingerprint", "unknown")),
                cca=cca,
                attempts=int(entry.get("attempts", 1)),
                quarantined=True,
            )
            blocked[index] = failure_outcome(refusal)
        return blocked

    def _account_outcomes(self, outcomes: Sequence[EvaluationOutcome]) -> None:
        """Count failures and quarantine the deterministic ones."""
        registry = get_registry()
        for _, summary in outcomes:
            failure = summary.get("failure") if isinstance(summary, dict) else None
            if not isinstance(failure, dict):
                continue
            kind = str(failure.get("kind", "crash"))
            registry.inc("exec.failures")
            registry.inc(f"exec.failures.{kind}")
            if failure.get("quarantined"):
                registry.inc("exec.quarantine_hits")
                continue
            store = self.policy.quarantine
            if store is None:
                continue
            deterministic = kind in _DETERMINISTIC_KINDS or (
                kind == "worker-death"
                and int(failure.get("attempts", 0)) > self.policy.max_retries
            )
            if not deterministic:
                continue
            try:
                record = EvaluationFailure.from_dict(failure)
            except (KeyError, ValueError, TypeError):
                continue
            if store.record(record):
                registry.inc("exec.quarantined")

    @contextlib.contextmanager
    def _record_batch(self, batch_size: int) -> Iterator[None]:
        """Submit-side telemetry wrapper around one batch.

        Recorded from the coordinator, so it covers every backend uniformly
        — including the process pool, whose workers increment their own
        per-process registries that never reach this one.  ``jobs_in_flight``
        is a live queue-depth gauge (request threads sharing one backend
        stack their batches); ``batch_occupancy`` is the fraction of the
        worker pool one batch can keep busy.
        """
        registry = get_registry()
        workers = getattr(self, "workers", 1)
        registry.inc("exec.batches")
        registry.inc("exec.jobs", batch_size)
        registry.gauge_set("exec.workers", workers)
        registry.gauge_add("exec.jobs_in_flight", batch_size)
        started = time.perf_counter()
        try:
            yield
        finally:
            registry.gauge_add("exec.jobs_in_flight", -batch_size)
            registry.observe("exec.batch_wall_s", time.perf_counter() - started)
            registry.observe(
                "exec.batch_occupancy", min(1.0, batch_size / max(1, workers))
            )

    def close(self) -> None:
        """Release any pooled workers (idempotent; pools restart lazily)."""

    def __enter__(self) -> "EvaluationBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class SerialBackend(EvaluationBackend):
    """Evaluate jobs one after another in the calling process."""

    name = "serial"

    def _run_jobs(self, jobs: List[EvaluationJob]) -> List[EvaluationOutcome]:
        chaos = active_plan()
        return [
            self._resolve(guarded_evaluate(job, chaos, allow_exit=False)) for job in jobs
        ]


class ProcessPoolBackend(EvaluationBackend):
    """Evaluate jobs on a supervised process pool with chunked prefetch.

    Each worker may hold ``ceil(len(jobs) / (4 × workers))`` jobs at once, so
    every worker gets a few chunks per batch — large enough to amortise
    pickling, small enough to balance uneven simulation times.  This is the
    only backend that enforces ``FaultPolicy.job_timeout`` and survives
    hard-exiting evaluations; if the pool cannot start at all (fork failure,
    fd exhaustion) the batch degrades to in-process serial evaluation rather
    than aborting.
    """

    name = "process"

    def __init__(
        self,
        workers: Optional[int] = None,
        policy: Optional[FaultPolicy] = None,
    ) -> None:
        super().__init__(policy)
        if workers is not None and workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = workers or _default_workers()
        self._pool_instance: Optional[SupervisedProcessPool] = None
        self._init_lock = threading.Lock()

    def _pool(self) -> SupervisedProcessPool:
        # Guarded: the dashboard's request threads share one backend and may
        # race to trigger the lazy pool creation.  submit_batch itself is
        # thread-safe, so concurrent batches then interleave freely.
        with self._init_lock:
            if self._pool_instance is None:
                from .supervisor import SupervisedProcessPool

                self._pool_instance = SupervisedProcessPool(self.workers, policy=self.policy)
            return self._pool_instance

    def _prefetch(self, batch_size: int) -> int:
        return max(1, -(-batch_size // (4 * self.workers)))

    def _run_jobs(self, jobs: List[EvaluationJob]) -> List[EvaluationOutcome]:
        from .supervisor import SupervisorError

        chaos = active_plan()
        try:
            pairs = self._pool().submit_batch(
                jobs, chaos=chaos, prefetch=self._prefetch(len(jobs))
            )
        except SupervisorError:
            # Graceful degradation: a pool that cannot even start must not
            # kill the campaign — evaluate inline instead.
            get_registry().inc("exec.serial_fallbacks")
            pairs = [guarded_evaluate(job, chaos, allow_exit=False) for job in jobs]
        return [self._resolve(pair) for pair in pairs]

    def close(self) -> None:
        if self._pool_instance is not None:
            self._pool_instance.close()
            self._pool_instance = None


def create_backend(
    name: str,
    workers: Optional[int] = None,
    policy: Optional[FaultPolicy] = None,
) -> EvaluationBackend:
    """Build a backend by name (``serial`` or ``process``).

    The serial backend ignores ``workers``, but a bad count is rejected
    whichever backend is named, so a spec cannot carry one unnoticed.
    """
    if name not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {name!r}")
    if workers is not None and workers < 1:
        raise ValueError("workers must be at least 1")
    if name == "serial":
        return SerialBackend(policy=policy)
    return ProcessPoolBackend(workers=workers, policy=policy)
