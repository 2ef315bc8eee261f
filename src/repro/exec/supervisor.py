"""A supervised process pool that survives hangs, crashes and hard exits.

``multiprocessing.Pool`` cannot express the fault model this project needs:
a worker that dies mid-task poisons the pool, and a hung task blocks its
result forever.  :class:`SupervisedProcessPool` replaces it with N plain
worker processes, one duplex pipe each, and a single dispatcher thread in
the parent that

* assigns tickets FIFO with a bounded per-worker prefetch (the chunk the
  backend derives per batch), so the oldest unacknowledged ticket on a
  worker is always the one it is currently executing;
* enforces ``FaultPolicy.job_timeout`` per job: an overdue worker is sent
  ``SIGABRT`` first — ``faulthandler`` is enabled in every worker, so the
  hung stack is dumped to stderr for diagnosis — then killed, replaced,
  and the overdue job completed as a ``timeout`` failure;
* watches process sentinels, so a worker that exits hard (chaos ``exit``,
  segfault, OOM kill) is detected immediately: the job it was running is
  retried with exponential backoff up to ``max_retries`` times (transient
  deaths are common under memory pressure), then failed as
  ``worker-death``; other prefetched tickets are requeued without losing
  an attempt;
* completes every submitted ticket exactly once, in input order, as
  ``("ok", outcome)`` or ``("fail", EvaluationFailure)`` — a batch can
  degrade, never wedge.  Even a dispatcher crash fails outstanding tickets
  rather than hanging callers.

The pool is lazily started, restartable after :meth:`close`, and safe to
share between submitting threads (the dashboard's request threads share one
through its replay service).  Workers evaluate through
:func:`~repro.exec.faults.guarded_evaluate`, receiving the chaos plan
inside each job message, so a long-lived pool observes plan changes made
after its workers forked.
"""

from __future__ import annotations

import faulthandler
import itertools
import multiprocessing
import os
import signal
import sys
import threading
import time
from collections import deque
from multiprocessing.connection import wait as connection_wait
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..obs.metrics import get_registry
from .faults import (
    EvaluationFailure, FaultPolicy, backoff_s, guarded_evaluate, job_cca, job_fingerprint,
)
from .workers import EvaluationJob


class SupervisorError(RuntimeError):
    """The pool cannot run at all (spawn failure, closed mid-submit)."""


def _pool_worker_main(conn) -> None:
    """Worker process entry: evaluate tickets from ``conn`` until sentinel."""
    # A timeout kill arrives as SIGABRT; faulthandler dumps the hung stack
    # to stderr before the process dies, which is the only diagnostic a
    # deadlocked evaluation leaves behind.  Forked workers can inherit a
    # sys.stderr that has no file descriptor (pytest's capsys swaps in an
    # in-memory stream); fall back to the real stderr rather than dying in
    # the initializer.
    for stream in (sys.stderr, sys.__stderr__):
        try:
            faulthandler.enable(file=stream)
        except Exception:
            continue
        break
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        ticket_id, job, chaos = message
        try:
            status, payload = guarded_evaluate(job, chaos)
        except BaseException as exc:  # guarded_evaluate only lets these through
            status, payload = "fail", EvaluationFailure(
                kind="crash",
                message=f"{type(exc).__name__}: {exc}",
                fingerprint=job_fingerprint(job),
                cca=job_cca(job),
            )
        try:
            conn.send((ticket_id, status, payload))
        except (EOFError, OSError):
            return
        except Exception as exc:
            # Unpicklable result: Connection.send pickles before writing any
            # bytes, so the channel is still intact — report it as garbage.
            conn.send((
                ticket_id,
                "fail",
                EvaluationFailure(
                    kind="garbage",
                    message=f"result not picklable ({type(exc).__name__}: {exc})",
                    fingerprint=job_fingerprint(job),
                    cca=job_cca(job),
                ),
            ))


class _Batch:
    __slots__ = ("results", "remaining", "chaos", "event")

    def __init__(self, size: int, chaos: Any) -> None:
        self.results: List[Optional[Tuple[str, Any]]] = [None] * size
        self.remaining = size
        self.chaos = chaos
        self.event = threading.Event()


class _Ticket:
    __slots__ = ("ticket_id", "index", "job", "batch", "attempts", "not_before")

    def __init__(self, ticket_id: int, index: int, job: EvaluationJob, batch: _Batch) -> None:
        self.ticket_id = ticket_id
        self.index = index
        self.job = job
        self.batch = batch
        self.attempts = 0  # completed execution attempts that ended in worker death
        self.not_before = 0.0  # monotonic time before which it must not re-run


class _Worker:
    __slots__ = ("slot", "conn", "proc", "unacked", "busy_since")

    def __init__(self, slot: int, conn, proc) -> None:
        self.slot = slot
        self.conn = conn
        self.proc = proc
        self.unacked: Deque[int] = deque()
        self.busy_since = 0.0


class SupervisedProcessPool:
    """Fault-isolating replacement for ``multiprocessing.Pool.map``."""

    def __init__(
        self,
        workers: int,
        policy: Optional[FaultPolicy] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be a positive integer")
        self.workers = workers
        self.policy = policy or FaultPolicy()
        self._context = multiprocessing.get_context()
        self._lock = threading.Lock()
        self._running = False
        self._closing = False
        self._dispatcher: Optional[threading.Thread] = None
        self._workers: List[_Worker] = []
        self._pending: List[_Ticket] = []
        self._inflight: Dict[int, _Ticket] = {}
        self._ticket_ids = itertools.count()
        self._prefetch = 1
        self._wakeup_recv = None
        self._wakeup_send = None

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def submit_batch(
        self, jobs: List[EvaluationJob], chaos: Any = None, prefetch: int = 1
    ) -> List[Tuple[str, Any]]:
        """Evaluate ``jobs``; one ``(status, payload)`` per job, in order.

        Blocks until every job completed or failed.  Raises
        :class:`SupervisorError` only when the pool cannot start at all.
        """
        jobs = list(jobs)
        if not jobs:
            return []
        with self._lock:
            self._ensure_running_locked()
            if self._closing:
                raise SupervisorError("pool is closing")
            self._prefetch = max(1, int(prefetch))
            batch = _Batch(len(jobs), chaos)
            for index, job in enumerate(jobs):
                ticket = _Ticket(next(self._ticket_ids), index, job, batch)
                self._pending.append(ticket)
            self._notify_locked()
        batch.event.wait()
        return list(batch.results)  # type: ignore[arg-type]

    def close(self) -> None:
        """Idempotent shutdown; the pool lazily restarts on the next submit."""
        with self._lock:
            if not self._running:
                self._shutdown_workers_locked(graceful=True)
                return
            self._closing = True
            dispatcher = self._dispatcher
            self._notify_locked()
        if dispatcher is not None:
            dispatcher.join(timeout=10.0)
        with self._lock:
            self._fail_outstanding_locked("pool closed")
            self._shutdown_workers_locked(graceful=True)
            self._close_wakeup_locked()
            self._dispatcher = None
            self._running = False
            self._closing = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def _ensure_running_locked(self) -> None:
        if self._running:
            return
        try:
            self._wakeup_recv, self._wakeup_send = multiprocessing.Pipe(duplex=False)
            self._workers = []
            for slot in range(self.workers):
                self._spawn_worker_locked(slot)
        except OSError as exc:
            self._shutdown_workers_locked(graceful=False)
            self._close_wakeup_locked()
            raise SupervisorError(f"cannot start evaluation pool: {exc}") from exc
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, daemon=True, name="repro-eval-dispatch"
        )
        self._dispatcher.start()
        self._running = True
        self._closing = False

    def _spawn_worker_locked(self, slot: int) -> _Worker:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        proc = self._context.Process(
            target=_pool_worker_main,
            args=(child_conn,),
            daemon=True,
            name=f"repro-eval-{slot}",
        )
        proc.start()
        child_conn.close()
        worker = _Worker(slot, parent_conn, proc)
        if slot < len(self._workers):
            self._workers[slot] = worker
        else:
            self._workers.append(worker)
        return worker

    def _shutdown_workers_locked(self, graceful: bool) -> None:
        for worker in self._workers:
            if graceful:
                try:
                    worker.conn.send(None)
                except (OSError, ValueError):
                    pass
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.proc.join(0.5 if graceful else 0.0)
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(0.5)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(1.0)
        self._workers = []

    def _close_wakeup_locked(self) -> None:
        for conn in (self._wakeup_recv, self._wakeup_send):
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
        self._wakeup_recv = None
        self._wakeup_send = None

    def _notify_locked(self) -> None:
        if self._wakeup_send is not None:
            try:
                self._wakeup_send.send_bytes(b"w")
            except (OSError, ValueError):
                pass

    # ------------------------------------------------------------------ #
    # Dispatcher
    # ------------------------------------------------------------------ #

    def _dispatch_loop(self) -> None:
        try:
            while True:
                with self._lock:
                    if self._closing:
                        self._fail_outstanding_locked("pool closed")
                        return
                    now = time.monotonic()
                    self._check_deadlines_locked(now)
                    self._assign_locked(now)
                    watch: Dict[Any, Tuple[_Worker, str]] = {}
                    waitables: List[Any] = [self._wakeup_recv]
                    for worker in self._workers:
                        watch[worker.proc.sentinel] = (worker, "sentinel")
                        waitables.append(worker.proc.sentinel)
                        if worker.unacked:
                            watch[worker.conn] = (worker, "conn")
                            waitables.append(worker.conn)
                    timeout = self._next_timeout_locked(now)
                ready = connection_wait(waitables, timeout)
                with self._lock:
                    for obj in ready:
                        if obj is self._wakeup_recv:
                            try:
                                while self._wakeup_recv.poll(0):
                                    self._wakeup_recv.recv_bytes()
                            except (EOFError, OSError):
                                pass
                            continue
                        entry = watch.get(obj)
                        if entry is None:
                            continue
                        worker, kind = entry
                        if (
                            worker.slot >= len(self._workers)
                            or self._workers[worker.slot] is not worker
                        ):
                            continue  # replaced earlier in this ready batch
                        if kind == "sentinel":
                            if not worker.proc.is_alive():
                                self._worker_died_locked(worker)
                        else:
                            if self._drain_worker_locked(worker):
                                self._worker_died_locked(worker)
        except Exception as exc:  # never leave submitters waiting
            with self._lock:
                self._fail_outstanding_locked(f"evaluation pool broke ({type(exc).__name__}: {exc})")
                self._shutdown_workers_locked(graceful=False)
                self._close_wakeup_locked()
                self._running = False
                self._closing = False

    def _assign_locked(self, now: float) -> None:
        if not self._pending:
            return
        self._pending.sort(key=lambda ticket: ticket.ticket_id)
        for worker in self._workers:
            while len(worker.unacked) < self._prefetch:
                ticket = None
                for candidate in self._pending:
                    if candidate.not_before <= now:
                        ticket = candidate
                        break
                if ticket is None:
                    return
                try:
                    worker.conn.send((ticket.ticket_id, ticket.job, ticket.batch.chaos))
                except (OSError, ValueError):
                    break  # dead worker; its sentinel event handles cleanup
                self._pending.remove(ticket)
                if not worker.unacked:
                    worker.busy_since = now
                worker.unacked.append(ticket.ticket_id)
                self._inflight[ticket.ticket_id] = ticket

    def _next_timeout_locked(self, now: float) -> Optional[float]:
        timeout: Optional[float] = None
        if self.policy.job_timeout is not None:
            for worker in self._workers:
                if worker.unacked:
                    delta = worker.busy_since + self.policy.job_timeout - now
                    timeout = delta if timeout is None else min(timeout, delta)
        for ticket in self._pending:
            if ticket.not_before > now:
                delta = ticket.not_before - now
                timeout = delta if timeout is None else min(timeout, delta)
        if timeout is None:
            return None
        return max(timeout, 0.001)

    def _check_deadlines_locked(self, now: float) -> None:
        if self.policy.job_timeout is None:
            return
        for worker in list(self._workers):
            if worker.unacked and now - worker.busy_since > self.policy.job_timeout:
                # A result may have landed right at the deadline: drain the
                # pipe first so a finished job is never blamed as hung.
                if self._drain_worker_locked(worker):
                    self._worker_died_locked(worker)
                elif worker.unacked and now - worker.busy_since > self.policy.job_timeout:
                    self._timeout_worker_locked(worker)

    def _drain_worker_locked(self, worker: _Worker) -> bool:
        """Apply buffered results; True when the pipe reports the worker dead."""
        while True:
            try:
                if not worker.conn.poll(0):
                    return False
                message = worker.conn.recv()
            except (EOFError, OSError):
                return True
            ticket_id, status, payload = message
            try:
                worker.unacked.remove(ticket_id)
            except ValueError:
                pass
            worker.busy_since = time.monotonic()
            ticket = self._inflight.pop(ticket_id, None)
            if ticket is None:
                continue
            if status == "fail" and ticket.attempts:
                payload = payload.with_attempts(ticket.attempts + 1)
            self._complete_locked(ticket, status, payload)

    def _worker_died_locked(self, worker: _Worker) -> None:
        self._drain_worker_locked(worker)  # flush results sent before death
        worker.proc.join(1.0)
        exitcode = worker.proc.exitcode
        try:
            worker.conn.close()
        except OSError:
            pass
        blamed: Optional[_Ticket] = None
        if worker.unacked:
            blamed = self._inflight.pop(worker.unacked.popleft(), None)
        self._requeue_unacked_locked(worker)
        self._spawn_worker_locked(worker.slot)
        get_registry().inc("exec.worker_restarts")
        if blamed is None:
            return
        blamed.attempts += 1
        if blamed.attempts > self.policy.max_retries:
            code = "unknown" if exitcode is None else str(exitcode)
            failure = EvaluationFailure(
                kind="worker-death",
                message=f"worker died while evaluating (exit code {code})",
                fingerprint=job_fingerprint(blamed.job),
                cca=job_cca(blamed.job),
                attempts=blamed.attempts,
            )
            self._complete_locked(blamed, "fail", failure)
        else:
            get_registry().inc("exec.retries")
            blamed.not_before = time.monotonic() + backoff_s(blamed.attempts)
            self._pending.append(blamed)

    def _timeout_worker_locked(self, worker: _Worker) -> None:
        blamed: Optional[_Ticket] = None
        if worker.unacked:
            blamed = self._inflight.pop(worker.unacked.popleft(), None)
        self._requeue_unacked_locked(worker)
        self._kill_worker(worker)
        self._spawn_worker_locked(worker.slot)
        registry = get_registry()
        registry.inc("exec.timeouts")
        registry.inc("exec.worker_restarts")
        if blamed is not None:
            failure = EvaluationFailure(
                kind="timeout",
                message=(
                    f"job exceeded {self.policy.job_timeout:g}s wall clock; worker killed"
                ),
                fingerprint=job_fingerprint(blamed.job),
                cca=job_cca(blamed.job),
                attempts=blamed.attempts + 1,
            )
            self._complete_locked(blamed, "fail", failure)

    def _requeue_unacked_locked(self, worker: _Worker) -> None:
        while worker.unacked:
            ticket = self._inflight.pop(worker.unacked.popleft(), None)
            if ticket is not None:
                ticket.not_before = 0.0
                self._pending.append(ticket)

    def _kill_worker(self, worker: _Worker) -> None:
        proc = worker.proc
        if proc.is_alive() and hasattr(signal, "SIGABRT"):
            try:
                # SIGABRT first: the worker's faulthandler dumps the hung
                # stack to stderr before the default handler aborts.
                os.kill(proc.pid, signal.SIGABRT)
            except (OSError, TypeError):
                pass
            proc.join(1.0)
        if proc.is_alive():
            proc.kill()
            proc.join(1.0)
        try:
            worker.conn.close()
        except OSError:
            pass

    def _complete_locked(self, ticket: _Ticket, status: str, payload: Any) -> None:
        batch = ticket.batch
        if batch.results[ticket.index] is not None:
            return
        batch.results[ticket.index] = (status, payload)
        batch.remaining -= 1
        if batch.remaining == 0:
            batch.event.set()

    def _fail_outstanding_locked(self, message: str) -> None:
        outstanding = list(self._pending) + list(self._inflight.values())
        self._pending = []
        self._inflight = {}
        for ticket in outstanding:
            failure = EvaluationFailure(
                kind="worker-death",
                message=message,
                fingerprint=job_fingerprint(ticket.job),
                cca=job_cca(ticket.job),
                attempts=ticket.attempts,
            )
            self._complete_locked(ticket, "fail", failure)
