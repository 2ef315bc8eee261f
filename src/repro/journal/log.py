"""Append-only journal file: fsync'd writer, torn-tail-tolerant reader, merge.

Crash-safety contract:

* every append writes one full line then ``flush`` + ``os.fsync`` before
  returning, so an acknowledged record survives a SIGKILL;
* every rename that publishes journal bytes (rotation, merge, compaction)
  fsyncs the parent directory afterwards, so an acknowledged rename survives
  a power loss, not just a process death;
* a crash mid-append can only damage the *final* line (either unterminated
  or failing its checksum) — readers skip exactly that torn tail and report
  it, while corruption anywhere earlier raises :class:`JournalCorruption`;
* the writer repairs the file before its first append after reopening: a
  valid-but-unterminated final record gets its newline, torn bytes are
  truncated away, and the sequence counter continues after the last valid
  record.

Multi-process contract (the worker-fleet mode):

* appends are serialised across processes by an advisory ``flock`` on a
  sidecar ``<journal>.lock`` file, so two workers can never interleave bytes
  of one record;
* before writing, the holder re-checks its open handle against the path
  (``fstat`` inode/device) and re-scans any bytes other writers appended
  since its last write, so a journal rotated, compacted or appended-to under
  an open handle is picked up instead of written past;
* :meth:`claim_lease` / :meth:`renew_lease` / :meth:`release_lease` turn
  ``scenario_lease`` records into an atomic claim protocol: a claim replays
  the log *under the file lock* and only appends if no live lease exists,
  granting a fresh fencing epoch.
"""

from __future__ import annotations

import os
import threading
import time
from typing import IO, Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..obs.metrics import get_registry
from ..storage import fsync_dir, publish, split_lines
from .events import JournalCorruption, JournalRecord, make_record
from .view import JournalView, replay_records

try:  # pragma: no cover - import guard for non-POSIX platforms
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

JOURNAL_FILENAME = "journal.jsonl"

#: Default scenario-lease time-to-live for fleet workers (seconds).
DEFAULT_LEASE_TTL = 30.0


def _scan_bytes(raw: bytes, *, observing: bool = False) -> Tuple[List[JournalRecord], int, int]:
    """Parse journal bytes into ``(records, valid_byte_length, torn_records)``.

    The one journal parser.  A record that fails to parse is *torn* when it
    is the final one — a crash mid-append can damage nothing else — and the
    scan stops there.  Anywhere earlier it is corruption: a writer raises,
    because an append-only log cannot lose interior records and must not be
    appended past them; an observer (``observing=True``, passed only by
    :func:`read_journal_view`) counts it as torn and keeps every other record.

    ``valid_byte_length`` is where a repairing writer should truncate to: the
    end of the last intact record, *including* its newline if present (a
    valid final record missing only its newline is counted as intact, and
    the caller terminates it).
    """
    lines, remainder = split_lines(raw)
    records: List[JournalRecord] = []
    valid_length = 0
    torn = 0
    end = 0
    for index, chunk in enumerate(lines + [remainder] if remainder else lines):
        terminated = index < len(lines)
        end += len(chunk) + terminated
        if chunk.strip():
            try:
                records.append(JournalRecord.from_line(chunk.decode("utf-8")))
            except (JournalCorruption, UnicodeDecodeError) as exc:
                torn += 1
                if end >= len(raw):
                    break
                if observing:
                    continue
                raise JournalCorruption(
                    f"corrupt journal record before the final line: {exc}"
                ) from exc
        valid_length = end
    return records, valid_length, torn


class CampaignJournal:
    """Append-only JSONL event log for one campaign corpus.

    Thread-safe for appends (parallel scenario workers share one journal),
    and — via the sidecar file lock — process-safe too: a fleet of worker
    processes appends to one journal file without interleaving records.
    Reading (:meth:`records`, :meth:`replay`) re-scans the file, so a reader
    never needs the writer's in-memory state.
    """

    def __init__(self, path: str, *, fsync: bool = True) -> None:
        self.path = str(path)
        self.fsync = fsync
        self._lock = threading.RLock()
        self._handle: Optional[IO[bytes]] = None
        self._next_seq: Optional[int] = None
        #: Byte offset of the end of the last record *this* writer knows
        #: about; bytes beyond it were appended by other processes and are
        #: re-scanned before the next append.
        self._tail_offset: int = 0
        self._lock_handle: Optional[IO[bytes]] = None
        self._lock_depth: int = 0

    # ------------------------------------------------------------------ #
    # Location
    # ------------------------------------------------------------------ #

    @classmethod
    def corpus_path(cls, corpus_dir: str) -> str:
        """Canonical journal location inside a corpus directory."""
        return os.path.join(str(corpus_dir), JOURNAL_FILENAME)

    # ------------------------------------------------------------------ #
    # Cross-process file lock
    # ------------------------------------------------------------------ #

    def _acquire_file_lock(self) -> None:
        """Take (or re-enter) the advisory lock shared by all writers.

        The lock lives on a sidecar ``<journal>.lock`` file rather than the
        journal itself: rotation and compaction replace the journal's inode,
        which would silently detach a lock held on the old one.
        """
        self._lock_depth += 1
        if self._lock_depth > 1 or fcntl is None:
            return
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        handle = open(f"{self.path}.lock", "ab")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        except OSError:
            # Filesystems without flock support degrade to thread-only
            # locking — same guarantees as before the fleet existed.
            handle.close()
            return
        self._lock_handle = handle

    def _release_file_lock(self) -> None:
        self._lock_depth -= 1
        if self._lock_depth > 0:
            return
        handle, self._lock_handle = self._lock_handle, None
        if handle is not None:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            except OSError:
                pass
            handle.close()

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    def _read_raw(self) -> bytes:
        try:
            with open(self.path, "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return b""

    def records(self) -> List[JournalRecord]:
        """All intact records, in file order.  Torn final records are skipped."""
        records, _, _ = _scan_bytes(self._read_raw())
        return records

    def replay(self) -> JournalView:
        """Fold the log into a consistent :class:`JournalView`."""
        records, _, torn = _scan_bytes(self._read_raw())
        return replay_records(records, torn_records=torn)

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #

    def _prepare_append(self) -> None:
        """Open for appending, repairing any torn tail left by a crash."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        raw = self._read_raw()
        records, valid_length, _ = _scan_bytes(raw)
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        created = not os.path.exists(self.path)
        handle = open(self.path, "ab")
        try:
            if created and self.fsync:
                # The file's directory entry must be durable before any
                # record in it is acknowledged.
                fsync_dir(parent)
            if valid_length < len(raw):
                handle.truncate(valid_length)
                handle.seek(0, os.SEEK_END)
            if valid_length and not raw[:valid_length].endswith(b"\n"):
                handle.write(b"\n")
                valid_length += 1
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        except BaseException:
            handle.close()
            raise
        self._handle = handle
        self._next_seq = (records[-1].seq if records else 0) + 1
        self._tail_offset = valid_length

    def _sync_with_file(self) -> None:
        """Re-validate the open handle against the path before appending.

        Catches the two ways another process (or an earlier rotation in this
        one) can invalidate the handle: the path now names a *different*
        inode (rotated / compacted / replaced — writing would go to an
        unlinked file), or other writers appended records past our tail (the
        next sequence number must continue after theirs).
        """
        if self._handle is None:
            self._prepare_append()
            return
        try:
            on_disk = os.stat(self.path)
        except FileNotFoundError:
            self._prepare_append()
            return
        here = os.fstat(self._handle.fileno())
        if (on_disk.st_ino, on_disk.st_dev) != (here.st_ino, here.st_dev):
            self._prepare_append()
            return
        if on_disk.st_size < self._tail_offset:
            # Truncated under us (e.g. an external repair); full re-scan.
            self._prepare_append()
            return
        if on_disk.st_size > self._tail_offset:
            with open(self.path, "rb") as reader:
                reader.seek(self._tail_offset)
                suffix = reader.read()
            records, valid_length, torn = _scan_bytes(suffix)
            if torn or valid_length != len(suffix):
                # Another writer died mid-append; take the repair path.
                self._prepare_append()
                return
            if records:
                self._next_seq = records[-1].seq + 1
            self._tail_offset += valid_length
            self._handle.seek(0, os.SEEK_END)

    def _write_line(self, payload: bytes) -> None:
        """Write one full record line and force it to disk.

        The crash harness patches this method to simulate a torn append, so
        keep it the single choke point for journal bytes.
        """
        assert self._handle is not None
        self._handle.write(payload)
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    def append(self, type: str, data: dict) -> JournalRecord:
        """Durably append one event; returns the written record."""
        with self._lock:
            self._acquire_file_lock()
            try:
                self._sync_with_file()
                assert self._next_seq is not None
                record = make_record(self._next_seq, type, data)
                payload = record.to_line().encode("utf-8")
                # Timed around the write+fsync choke point: append_s is the
                # durability cost per record (dominated by fsync on real disks).
                append_started = time.perf_counter()
                self._write_line(payload)
                registry = get_registry()
                registry.inc("journal.appends")
                registry.inc("journal.bytes", len(payload))
                registry.inc(f"journal.bytes.{type}", len(payload))
                registry.observe("journal.append_s", time.perf_counter() - append_started)
                self._next_seq += 1
                self._tail_offset += len(payload)
                return record
            finally:
                self._release_file_lock()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
                self._next_seq = None
                self._tail_offset = 0

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Scenario leases
    # ------------------------------------------------------------------ #

    def claim_lease(
        self,
        scenario_id: str,
        worker_id: str,
        *,
        ttl: float = DEFAULT_LEASE_TTL,
        now: Optional[float] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> Optional[Dict[str, Any]]:
        """Atomically claim a scenario; returns the lease payload or ``None``.

        Under the cross-process file lock the current journal is replayed;
        the claim succeeds only if the scenario is not complete and no live
        (unexpired, unreleased) lease exists.  A successful claim appends a
        ``scenario_lease`` with the next fencing epoch — records a previous
        holder writes *after* this point are dropped at replay.

        ``expires_at`` is wall-clock (``time.time()``; ``now`` injects it), so
        a clock step moves *when* a scenario becomes claimable, never *who*
        may write to it — that is the epoch's job:

        * a **forward** step of ``d`` makes a live lease look expired up to
          ``d`` early, so a holder that is still alive can be stolen from.
          The thief claims the next epoch and the old holder's later records
          are fenced, so the cost is the work since its last checkpoint, done
          twice;
        * a **backward** step of ``d`` keeps a lease claimed before the step
          live for up to ``ttl + d`` of the new clock: a dead holder's
          scenario waits that much longer for a thief, and nothing else.  A
          holder that is alive heartbeats, and its first renewal after the
          step re-bases the expiry on the new clock.
        """
        with self._lock:
            self._acquire_file_lock()
            try:
                moment = time.time() if now is None else float(now)
                view = self.replay()
                if not view.lease_claimable(scenario_id, moment):
                    return None
                data: Dict[str, Any] = dict(extra or {})
                data.update(
                    {
                        "scenario_id": scenario_id,
                        "worker_id": worker_id,
                        "lease_epoch": view.next_lease_epoch(scenario_id),
                        "expires_at": moment + float(ttl),
                        "ttl": float(ttl),
                    }
                )
                self.append("scenario_lease", data)
                return data
            finally:
                self._release_file_lock()

    def renew_lease(
        self,
        lease: Dict[str, Any],
        *,
        ttl: Optional[float] = None,
        now: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Heartbeat: push the lease's expiry forward.

        No claim check is needed — a renew for a stolen (stale-epoch) lease
        is simply ignored at replay, exactly like the zombie's data records.

        The latest renewal *replaces* the expiry (it is not a maximum), so
        after a wall-clock step in either direction the first heartbeat puts
        ``expires_at`` back on the clock the claimers read: ``ttl`` ahead of
        it, whatever the lease said before (see :meth:`claim_lease`).
        """
        moment = time.time() if now is None else float(now)
        horizon = float(ttl if ttl is not None else lease.get("ttl", DEFAULT_LEASE_TTL))
        data = {
            "scenario_id": lease["scenario_id"],
            "worker_id": lease.get("worker_id", ""),
            "lease_epoch": lease.get("lease_epoch", 0),
            "expires_at": moment + horizon,
        }
        self.append("lease_renew", data)
        lease["expires_at"] = data["expires_at"]
        return data

    def release_lease(self, lease: Dict[str, Any]) -> Dict[str, Any]:
        """Voluntarily give a scenario back (clean worker shutdown)."""
        data = {
            "scenario_id": lease["scenario_id"],
            "worker_id": lease.get("worker_id", ""),
            "lease_epoch": lease.get("lease_epoch", 0),
        }
        self.append("lease_release", data)
        return data

    # ------------------------------------------------------------------ #
    # Rotation
    # ------------------------------------------------------------------ #

    def rotate(self) -> Optional[str]:
        """Archive a finished campaign's log so a fresh one starts clean.

        If the journal already holds a ``campaign_start`` record, the file is
        renamed to ``journal-<k>.jsonl`` (first free ``k``) next to it and the
        sequence counter resets.  A missing or startless journal is left in
        place.  Returns the archive path, or ``None`` if nothing rotated.
        """
        with self._lock:
            self._acquire_file_lock()
            try:
                self.close()
                records = self.records()
                if not any(record.type == "campaign_start" for record in records):
                    return None
                base, ext = os.path.splitext(self.path)
                k = 1
                while os.path.exists(f"{base}-{k}{ext}"):
                    k += 1
                archived = f"{base}-{k}{ext}"
                os.replace(self.path, archived)
                # The archive's new name and the journal's disappearance are
                # directory mutations; without this a power loss could revive
                # the old campaign's log under the live name.
                fsync_dir(os.path.dirname(os.path.abspath(self.path)))
                return archived
            finally:
                self._release_file_lock()

    # ------------------------------------------------------------------ #
    # Compaction
    # ------------------------------------------------------------------ #

    def compact(self) -> Optional[Dict[str, Any]]:
        """Fold the whole journal into one snapshot record, in place.

        The snapshot record carries the replayed view's resume-relevant
        state (see :meth:`JournalView.to_snapshot`) and takes the sequence
        number of the last folded record, so appends continue exactly where
        they would have; replaying the compacted file yields a view
        equivalent to replaying the original for everything a resume reads.
        Runs under the cross-process lock — concurrent workers block, then
        transparently reopen the replaced file via their ``fstat`` check.

        Returns ``{"records_before", "records_after", "bytes_before",
        "bytes_after", "torn_records"}``, or ``None`` for an empty journal.
        """
        with self._lock:
            self._acquire_file_lock()
            try:
                self.close()
                raw = self._read_raw()
                records, _, torn = _scan_bytes(raw)
                if not records:
                    return None
                view = replay_records(records, torn_records=torn)
                snapshot = make_record(
                    max(view.last_seq, 1), "compaction_snapshot", view.to_snapshot()
                )
                payload = snapshot.to_line().encode("utf-8")
                publish(self.path, payload)
                return {
                    "records_before": len(records),
                    "records_after": 1,
                    "bytes_before": len(raw),
                    "bytes_after": len(payload),
                    "torn_records": torn,
                }
            finally:
                self._release_file_lock()


# ---------------------------------------------------------------------- #
# Read-only access (dashboard / query layer)
# ---------------------------------------------------------------------- #


def read_journal_view(path: str) -> JournalView:
    """Replay a journal file without ever touching it.

    The dashboard's query layer must not take the writers' path: a
    :class:`CampaignJournal` repairs torn tails, creates lock sidecars and
    fsyncs directories before its first append, any of which would make an
    attached observer perturb a live campaign.  This helper only ever opens
    the file for reading.  It also degrades instead of raising: interior
    corruption (a hard error for a writer, which must not append after lost
    records) is counted in ``torn_records`` and skipped, because a query
    endpoint answering against a half-copied file should render what it can
    rather than 500.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError:
        raw = b""
    records, _, torn = _scan_bytes(raw, observing=True)
    return replay_records(records, torn_records=torn)


def read_corpus_journal_view(corpus_dir: str) -> JournalView:
    """Read-only replay of a corpus directory's journal."""
    return read_journal_view(CampaignJournal.corpus_path(corpus_dir))


# ---------------------------------------------------------------------- #
# Merge
# ---------------------------------------------------------------------- #


def merge_records(
    record_lists: Iterable[Iterable[JournalRecord]],
) -> List[JournalRecord]:
    """Union journals from several machines into one deduplicated log.

    Records are deduplicated by content (:meth:`JournalRecord.dedup_key`,
    which ignores ``seq``), keeping the *lowest* sequence number seen for
    each, then ordered by ``(seq, type, dedup_key)``.  The result is a pure
    function of the deduplicated record set — per-content minimum is both
    commutative and associative — so ``merge(a, b) == merge(b, a)``,
    ``merge(merge(a, b), c) == merge(a, merge(b, c))``, and merging a log
    with itself is the identity.  Sequence numbers from different machines
    may collide or leave gaps in the merged log; replay tolerates both (the
    sort's type/dedup-key tie-break keeps it deterministic), and a writer
    appending to the merged file simply continues after the highest seq.
    """
    best: dict = {}
    for records in record_lists:
        for record in records:
            key = record.dedup_key()
            kept = best.get(key)
            if kept is None or record.seq < kept.seq:
                best[key] = record
    return sorted(best.values(), key=lambda r: (r.seq, r.type, r.dedup_key()))


def merge_journals(paths: Sequence[str], output_path: str) -> int:
    """Merge journal files into ``output_path`` (atomically); returns record count."""
    merged = merge_records(CampaignJournal(path).records() for path in paths)
    # Durability of the publish itself, not just the bytes: an acknowledged
    # merge must still exist after power loss (the journal crash contract).
    publish(output_path, b"".join(record.to_line().encode("utf-8") for record in merged))
    return len(merged)
