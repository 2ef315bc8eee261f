"""A supervised process pool that survives hangs, crashes and hard exits.

``multiprocessing.Pool`` cannot express the fault model this project needs:
a worker that dies mid-task poisons the pool, and a hung task blocks its
result forever.  :class:`SupervisedProcessPool` replaces it with N plain
worker processes, one duplex pipe each, and a single dispatcher thread in
the parent that

* assigns tickets FIFO in *chunks*: a worker gets every ticket it may take
  (up to the per-batch prefetch, never mixing chaos plans) as one message
  ``(chaos, [(ticket_id, job), ...])`` and replies once per chunk with every
  ``(ticket_id, status, payload)``, so the jobs' shared factory, config and
  score function cross the pipe once per chunk and the parent wakes once
  per chunk.  Each worker publishes the ticket it is executing, and since
  when, in its slot of a shared progress array: that slot, not the last
  reply, is what the fault handlers below read;
* enforces ``FaultPolicy.job_timeout`` per job: a worker whose running
  ticket is overdue is sent ``SIGABRT`` first — ``faulthandler`` is enabled
  in every worker, so the hung stack is dumped to stderr for diagnosis —
  then killed, replaced, and that ticket completed as a ``timeout`` failure;
* watches process sentinels, so a worker that exits hard (chaos ``exit``,
  segfault, OOM kill) is detected immediately: the ticket it was running is
  retried with exponential backoff up to ``max_retries`` times (transient
  deaths are common under memory pressure), then failed as
  ``worker-death``;
* requeues, without charging an attempt, every other ticket a dead or
  killed worker held — the ones it had not reached and the ones it had
  finished but not yet replied for (evaluation is deterministic, so the
  rerun's outcome is the same);
* completes every submitted ticket exactly once, in input order, as
  ``("ok", outcome)`` or ``("fail", EvaluationFailure)`` — a batch can
  degrade, never wedge.  Even a dispatcher crash fails outstanding tickets
  rather than hanging callers.

The pool is lazily started, restartable after :meth:`close`, and safe to
share between submitting threads (the dashboard's request threads share one
through its replay service).  Workers evaluate through
:func:`~repro.exec.faults.guarded_evaluate`, receiving the chaos plan
inside each chunk message, so a long-lived pool observes plan changes made
after its workers forked.
"""

from __future__ import annotations

import faulthandler
import itertools
import multiprocessing
import os
import pickle
import signal
import sys
import threading
import time
from collections import deque
from multiprocessing.connection import wait as connection_wait
from multiprocessing.heap import BufferWrapper
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..obs.metrics import get_registry
from .faults import (
    EvaluationFailure, FaultPolicy, backoff_s, guarded_evaluate, job_cca, job_fingerprint,
)
from .workers import EvaluationJob


class SupervisorError(RuntimeError):
    """The pool cannot run at all (spawn failure, closed mid-submit)."""


#: How often an idle worker checks that the process that started it lives.
ORPHAN_CHECK_S = 1.0


def _pool_worker_main(conn, progress_block, slot: int) -> None:
    """Worker process entry: evaluate chunks from ``conn`` until sentinel.

    Before each ticket it writes its slot of ``progress_block``: the start
    time to double ``2 * slot + 1``, then the ticket id to ``2 * slot``, so a
    reader that sees the id sees a start no older than that ticket's.
    """
    progress = progress_block.create_memoryview().cast("d")
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
    # A parent killed outright sends no sentinel, and the forked workers
    # hold the parent's ends of the pipes open, so no EOF comes either: an
    # idle worker leaves once it has been handed to another parent.
    parent = os.getppid()
    while True:
        try:
            while not conn.poll(ORPHAN_CHECK_S):
                if os.getppid() != parent:
                    return
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        chaos, chunk = message
        results = []
        for ticket_id, job in chunk:
            progress[2 * slot + 1] = time.monotonic()
            progress[2 * slot] = ticket_id
            try:
                status, payload = guarded_evaluate(job, chaos)
            except BaseException as exc:  # guarded_evaluate only lets these through
                status, payload = "fail", _failure("crash", f"{type(exc).__name__}: {exc}", job)
            results.append((ticket_id, status, payload))
        try:
            conn.send(results)
        except (EOFError, OSError):
            return
        except Exception:
            # Unpicklable result: Connection.send pickles before writing any
            # bytes, so the channel is still intact — report it as garbage.
            conn.send([_picklable(result, job) for result, (_, job) in zip(results, chunk)])


def _failure(kind: str, message: str, job: EvaluationJob, attempts: int = 1) -> EvaluationFailure:
    return EvaluationFailure(kind, message, job_fingerprint(job), job_cca(job), attempts)


def _picklable(result: Tuple[int, str, Any], job: EvaluationJob) -> Tuple[int, str, Any]:
    try:
        pickle.dumps(result)
    except Exception as exc:
        message = f"result not picklable ({type(exc).__name__}: {exc})"
        return result[0], "fail", _failure("garbage", message, job)
    return result


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
        self.unacked: Deque[int] = deque()  # ticket ids sent, in execution order
        self.busy_since = 0.0  # when its oldest unacked ticket can have started


class SupervisedProcessPool:
    """Fault-isolating replacement for ``multiprocessing.Pool.map``."""

    def __init__(
        self,
        workers: int,
        policy: FaultPolicy,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be a positive integer")
        self.workers = workers
        self.policy = policy
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
        self._progress_block: Any = None  # shared memory the workers write progress to
        self._progress: Any = None  # its doubles: per slot, the ticket id it runs and its start
        self._wakeup_recv = None
        self._wakeup_send = None

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def submit_batch(
        self, jobs: List[EvaluationJob], chaos: Any, prefetch: int
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
            # multiprocessing's shared heap, the block a RawArray wraps, without
            # the ctypes import that costs every process in the pool ~0.5 MB.
            self._progress_block = BufferWrapper(16 * self.workers)
            self._progress = self._progress_block.create_memoryview().cast("d")
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

    def _spawn_worker_locked(self, slot: int) -> None:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        # No ticket yet: fresh memory reads ticket 0, a dead predecessor's
        # slot a ticket that may be resent here.
        self._progress[2 * slot] = -1
        proc = self._context.Process(
            target=_pool_worker_main,
            args=(child_conn, self._progress_block, slot),
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
                    watch: Dict[Any, Tuple[Optional[_Worker], str]] = {
                        self._wakeup_recv: (None, "wakeup")
                    }
                    for worker in self._workers:
                        watch[worker.proc.sentinel] = (worker, "sentinel")
                        if worker.unacked:
                            watch[worker.conn] = (worker, "conn")
                    timeout = self._next_timeout_locked(now)
                ready = connection_wait(list(watch), timeout)
                with self._lock:
                    for obj in ready:
                        worker, kind = watch[obj]
                        if worker is None:
                            try:
                                while self._wakeup_recv.poll(0):
                                    self._wakeup_recv.recv_bytes()
                            except (EOFError, OSError):
                                pass
                        elif worker not in self._workers:
                            continue  # replaced earlier in this ready batch
                        elif kind == "sentinel":
                            if not worker.proc.is_alive():
                                self._worker_died_locked(worker)
                        elif self._receive_locked(worker):  # readable: a reply or EOF
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
                room = self._prefetch - len(worker.unacked)
                chunk: List[_Ticket] = []
                for ticket in self._pending:
                    if ticket.not_before <= now and (
                        not chunk or ticket.batch.chaos is chunk[0].batch.chaos
                    ):
                        chunk.append(ticket)
                        if len(chunk) == room:
                            break
                if not chunk:
                    return  # nothing is ready to run
                try:
                    worker.conn.send((chunk[0].batch.chaos, [(t.ticket_id, t.job) for t in chunk]))
                except (OSError, ValueError):
                    break  # dead worker; its sentinel event handles cleanup
                if not worker.unacked:
                    worker.busy_since = now
                for ticket in chunk:
                    self._pending.remove(ticket)
                    worker.unacked.append(ticket.ticket_id)
                    self._inflight[ticket.ticket_id] = ticket

    def _running_locked(self, worker: _Worker) -> Tuple[int, float]:
        """The unacked ticket ``worker`` is executing and its start, from its progress slot.

        Before the worker reaches its first unacked ticket, that ticket and
        ``busy_since``.
        """
        ticket_id = int(self._progress[2 * worker.slot])
        if ticket_id in worker.unacked:
            return ticket_id, self._progress[2 * worker.slot + 1]
        return worker.unacked[0], worker.busy_since

    def _next_timeout_locked(self, now: float) -> Optional[float]:
        wakes = [ticket.not_before for ticket in self._pending if ticket.not_before > now]
        if self.policy.job_timeout is not None:
            wakes += [
                self._running_locked(worker)[1] + self.policy.job_timeout
                for worker in self._workers
                if worker.unacked
            ]
        return max(min(wakes) - now, 0.001) if wakes else None

    def _check_deadlines_locked(self, now: float) -> None:
        timeout = self.policy.job_timeout
        if timeout is None:
            return
        for worker in list(self._workers):
            if not worker.unacked or now - self._running_locked(worker)[1] <= timeout:
                continue
            # A chunk may have landed right at the deadline: drain the pipe
            # first so a finished job is never blamed as hung.
            if self._drain_worker_locked(worker):
                self._worker_died_locked(worker)
            elif worker.unacked:
                ticket_id, started = self._running_locked(worker)
                if now - started > timeout:
                    self._timeout_worker_locked(worker, ticket_id)

    def _drain_worker_locked(self, worker: _Worker) -> bool:
        """Apply buffered chunk replies; True when the pipe reports the worker dead."""
        try:
            while worker.conn.poll(0):
                if self._receive_locked(worker):
                    return True
        except (EOFError, OSError):
            return True
        return False

    def _receive_locked(self, worker: _Worker) -> bool:
        """Apply the next chunk reply; True when the pipe reports the worker dead."""
        try:
            results = worker.conn.recv()
        except (EOFError, OSError):
            return True
        worker.busy_since = time.monotonic()
        for ticket_id, status, payload in results:
            if ticket_id in worker.unacked:
                worker.unacked.remove(ticket_id)
            ticket = self._inflight.pop(ticket_id, None)
            if ticket is None:
                continue
            if status == "fail" and ticket.attempts:
                payload = payload.with_attempts(ticket.attempts + 1)
            self._complete_locked(ticket, status, payload)
        return False

    def _take_running_locked(
        self, worker: _Worker, ticket_id: Optional[int] = None
    ) -> Optional[_Ticket]:
        """Detach the ticket to blame from a dead or killed worker; requeue the rest."""
        blamed: Optional[_Ticket] = None
        if worker.unacked:
            if ticket_id is None:
                ticket_id = self._running_locked(worker)[0]
            worker.unacked.remove(ticket_id)
            blamed = self._inflight.pop(ticket_id, None)
        while worker.unacked:
            ticket = self._inflight.pop(worker.unacked.popleft(), None)
            if ticket is not None:
                ticket.not_before = 0.0
                self._pending.append(ticket)
        return blamed

    def _worker_died_locked(self, worker: _Worker) -> None:
        self._drain_worker_locked(worker)  # flush results sent before death
        worker.proc.join(1.0)
        exitcode = worker.proc.exitcode
        try:
            worker.conn.close()
        except OSError:
            pass
        blamed = self._take_running_locked(worker)
        self._spawn_worker_locked(worker.slot)
        get_registry().inc("exec.worker_restarts")
        if blamed is None:
            return
        blamed.attempts += 1
        if blamed.attempts > self.policy.max_retries:
            code = "unknown" if exitcode is None else str(exitcode)
            message = f"worker died while evaluating (exit code {code})"
            failure = _failure("worker-death", message, blamed.job, blamed.attempts)
            self._complete_locked(blamed, "fail", failure)
        else:
            get_registry().inc("exec.retries")
            blamed.not_before = time.monotonic() + backoff_s(blamed.attempts)
            self._pending.append(blamed)

    def _timeout_worker_locked(self, worker: _Worker, ticket_id: int) -> None:
        blamed = self._take_running_locked(worker, ticket_id)
        self._abort_worker(worker)
        self._spawn_worker_locked(worker.slot)
        registry = get_registry()
        registry.inc("exec.timeouts")
        registry.inc("exec.worker_restarts")
        if blamed is not None:
            message = f"job exceeded {self.policy.job_timeout:g}s wall clock; worker killed"
            failure = _failure("timeout", message, blamed.job, blamed.attempts + 1)
            self._complete_locked(blamed, "fail", failure)

    def _abort_worker(self, worker: _Worker) -> None:
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
            failure = _failure("worker-death", message, ticket.job, ticket.attempts)
            self._complete_locked(ticket, "fail", failure)
