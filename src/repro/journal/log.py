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

Multi-process contract (a ``compact`` run beside a live campaign, or two
writers that share a journal by mistake):

* appends are serialised across processes by an advisory ``flock`` on a
  sidecar ``<journal>.lock`` file, so two writers can never interleave bytes
  of one record;
* before writing, the holder re-checks its open handle against the path
  (``fstat`` inode/device) and reads any bytes other writers appended since
  its last write, so a journal rotated, compacted or appended-to under an
  open handle is picked up instead of written past.

Read cost: every reader — a writer's :meth:`CampaignJournal.replay`, the
repair before an append, compaction, the dashboard — goes through
a :class:`JournalCursor`, which parses each byte of the file once and keeps
the fold; a later read costs the bytes appended since.  Only what breaks the
append-only assumption makes it read the file again from the start: a
different file under the path (rotated, compacted, merged over), a file
shorter than what was read, a last-read line that has changed (rewritten in
place), or records that sort before ones already folded.
"""

from __future__ import annotations

import os
import threading
import time
from typing import IO, Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..obs.metrics import get_registry
from ..storage import fsync_dir, publish, read_appended, split_lines
from .codec import deflate
from .events import JournalCorruption, JournalRecord, make_record
from .view import JournalFold, JournalView

try:  # pragma: no cover - import guard for non-POSIX platforms
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

JOURNAL_FILENAME = "journal.jsonl"


def _scan_bytes(
    raw: bytes, *, observing: bool = False
) -> Tuple[List[JournalRecord], int, int, int]:
    """Parse journal bytes into ``(records, valid_byte_length, skipped, torn_tail)``.

    The one journal parser.  A record that fails to parse is *torn* when it
    is the final one — a crash mid-append can damage nothing else — and the
    scan stops there.  Anywhere earlier it is corruption: a writer raises,
    because an append-only log cannot lose interior records and must not be
    appended past them; an observer (``observing=True``) skips it, counts it
    and keeps every other record.

    ``valid_byte_length`` is where a repairing writer should truncate to: the
    end of the last intact record, *including* its newline if present (a
    valid final record missing only its newline is counted as intact, and
    the caller terminates it).  ``skipped`` counts the bad records before that
    point, ``torn_tail`` the ones after it — which a later append may yet
    complete, so a reader that follows the file leaves them unread.
    """
    registry = get_registry()
    registry.inc("journal.scans")
    registry.inc("journal.bytes_scanned", len(raw))
    lines, remainder = split_lines(raw)
    records: List[JournalRecord] = []
    valid_length = 0
    skipped = 0
    torn_tail = 0
    end = 0
    for index, chunk in enumerate(lines + [remainder] if remainder else lines):
        terminated = index < len(lines)
        end += len(chunk) + terminated
        if chunk.strip():
            try:
                records.append(JournalRecord.from_line(chunk.decode("utf-8")))
            except (JournalCorruption, UnicodeDecodeError) as exc:
                torn_tail += 1
                if end >= len(raw):
                    break
                if observing:
                    continue
                raise JournalCorruption(
                    f"corrupt journal record before the final line: {exc}"
                ) from exc
        valid_length = end
        skipped += torn_tail
        torn_tail = 0
    return records, valid_length, skipped, torn_tail


class JournalCursor:
    """Follows one journal file: parses what was appended, keeps the fold.

    :meth:`advance` reads the bytes past :attr:`offset` through
    :func:`_scan_bytes` (same checksum, canonical-encoding and torn-tail
    rules as a whole-file read, under the writer's policy or, with
    ``observing=True``, the observer's) and folds them into the view it
    retains, so its cost is the bytes appended since the last call.  The
    result is always the view a from-scratch replay of the file's current
    bytes gives: the cursor holds the file open, so the inode it read cannot
    be reused for another file while it is being followed, and whenever the
    path names a different file, the file is shorter than :attr:`offset`, the
    last line it read is no longer there byte for byte (truncated and
    rewritten in place) or has been extended, or the new records do not sort
    after the folded ones, it forgets everything and reads from byte 0.

    It retains fold state, never the parsed records.  Only ever opens the
    file for reading.  Not thread-safe; its owner serialises calls.
    """

    def __init__(self, path: str, *, observing: bool = False) -> None:
        self.path = str(path)
        self.observing = observing
        self._handle: Optional[IO[bytes]] = None
        #: ``(st_ino, st_dev)`` of the file being followed, if one is open.
        self.identity: Optional[Tuple[int, int]] = None
        self._forget()

    def _forget(self) -> None:
        #: End of the last record folded (``_scan_bytes``'s valid length).
        self.offset = 0
        #: Size of the file when it was last read; past ``offset`` lies a
        #: torn tail that a writer truncates before appending.
        self.size = 0
        #: ``seq`` of the last folded record in *file* order.
        self.tail_seq = 0
        #: The line that ends at ``offset``, re-read on every advance: a file
        #: that does not hold it there any more was rewritten in place.
        self._last_line = b""
        self._skipped = 0
        self._fold = JournalFold()

    @property
    def unterminated(self) -> bool:
        """The byte before ``offset`` is not a newline: the final record is
        intact but its writer died before terminating the line."""
        return bool(self._last_line) and not self._last_line.endswith(b"\n")

    @property
    def traces(self) -> Dict[str, Dict[str, Any]]:
        """Digest -> trace for every trace table folded from the file."""
        return self._fold.traces

    @property
    def clean(self) -> bool:
        """Nothing past the folded records for a writer to repair."""
        return self.size == self.offset and not self.unterminated

    def close(self) -> None:
        """Release the file.  What was folded from it cannot be trusted once
        its inode is free to be reused, so that goes too."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
            self.identity = None
        self._forget()

    def __enter__(self) -> "JournalCursor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _pin(self) -> Optional[IO[bytes]]:
        """The open file, after making sure it is still the one the path names."""
        if self._handle is not None:
            try:
                on_disk = os.stat(self.path)
            except OSError:
                on_disk = None
            if on_disk is not None and (on_disk.st_ino, on_disk.st_dev) == self.identity:
                return self._handle
            self.close()
        try:
            handle = open(self.path, "rb")
        except FileNotFoundError:
            return None
        except OSError:
            if self.observing:
                return None
            raise
        status = os.fstat(handle.fileno())
        self._handle, self.identity = handle, (status.st_ino, status.st_dev)
        return handle

    def records(self) -> List[JournalRecord]:
        """Every intact record in file order: a cold read that folds nothing."""
        handle = self._pin()
        raw = read_appended(handle, 0)[0] if handle is not None else b""
        return _scan_bytes(raw, observing=self.observing)[0] if raw else []

    def advance(self) -> JournalView:
        """Fold what the file gained; returns the cursor's *live* view.

        The view is the one the next call goes on folding into — callers
        that keep it take :meth:`JournalView.copy`.  Under the writer's policy
        interior corruption raises :class:`JournalCorruption`, and nothing of
        that read is folded.
        """
        handle = self._pin()
        if handle is not None:
            back = len(self._last_line)
            raw, start = read_appended(handle, self.offset - back)
            appended = (
                start == self.offset - back
                and raw.startswith(self._last_line)
                and not (self.unterminated and raw[back : back + 1] not in (b"", b"\n"))
            )
            if not (appended and self._consume(raw[back:])):
                self._forget()
                self._consume(read_appended(handle, 0)[0])
        return self._fold.view

    def _consume(self, raw: bytes) -> bool:
        """Parse and fold bytes read at ``offset``; ``False`` if their
        records cannot continue the fold."""
        records, valid_length, skipped, torn_tail = (
            _scan_bytes(raw, observing=self.observing) if raw else ([], 0, 0, 0)
        )
        if not self._fold.extend(records):
            return False
        self.size = self.offset + len(raw)
        self.offset += valid_length
        self._skipped += skipped
        if records:
            self.tail_seq = records[-1].seq
        if valid_length:
            # Only the newline that terminates an unterminated record leaves
            # the last line starting before these bytes.
            start = raw.rfind(b"\n", 0, valid_length - 1) + 1
            carried = self._last_line if start == 0 and self.unterminated else b""
            self._last_line = carried + raw[start:valid_length]
        self._fold.view.torn_records = self._skipped + torn_tail
        return True

    def fold_appended(self, record: JournalRecord, line: bytes) -> None:
        """Fold a record its writer has just put at ``offset``, unread.

        The writer repaired the tail before appending and wrote the line
        whole, so there is nothing to verify that it did not just compute.
        """
        if not self._fold.extend([record]):
            self._forget()          # the next advance reads from byte 0
            return
        self.offset += len(line)
        self.size = self.offset
        self.tail_seq = record.seq
        self._last_line = line
        self._fold.view.torn_records = self._skipped


class CampaignJournal:
    """Append-only JSONL event log for one campaign corpus.

    Thread-safe (the quarantine hook appends from wherever a job failed),
    and — via the sidecar file lock — process-safe too: several processes
    append to one journal file without interleaving records.
    Everything it knows about the file's contents lives in one
    :class:`JournalCursor`, so each byte is parsed once per journal object:
    :meth:`replay`, the repair before an append and compaction all continue
    from where the last of them stopped.  A journal nobody has asked for a
    view (a fresh campaign's) parses and folds nothing: its own appends are
    folded as they are written only once :meth:`replay` has been called, and
    are read back if it is later.
    """

    def __init__(self, path: str, *, fsync: bool = True) -> None:
        self.path = str(path)
        self.fsync = fsync
        self._lock = threading.RLock()
        self._handle: Optional[IO[bytes]] = None
        #: ``(st_ino, st_dev)`` of the append handle's file.
        self._identity: Optional[Tuple[int, int]] = None
        self._cursor = JournalCursor(self.path)
        #: Someone holds a view: fold own appends instead of reading them back.
        self._following = False
        self._next_seq: Optional[int] = None
        #: Byte offset of the end of the last record *this* writer knows
        #: about; bytes beyond it were appended by other processes and are
        #: read through the cursor before the next append.
        self._tail_offset: int = 0
        self._lock_handle: Optional[IO[bytes]] = None
        self._lock_depth: int = 0
        #: Digests of the traces the file already holds: a record names
        #: these without carrying them.  Taken from the cursor whenever it
        #: has just read the file (:meth:`_prepare_append`, other writers'
        #: appends), grown by each successful write.
        self._digests: Set[str] = set()

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
            # locking, which is all one writing process needs.
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

    def records(self) -> List[JournalRecord]:
        """All intact records, in file order.  Torn final records are skipped."""
        with JournalCursor(self.path) as cursor:
            return cursor.records()

    def replay(self) -> JournalView:
        """Fold the log into a consistent :class:`JournalView`.

        The view is the caller's: later appends and replays do not change it.
        """
        with self._lock:
            self._following = True
            return self._cursor.advance().copy()

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #

    def _close_append(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
            self._identity = None

    def _prepare_append(self) -> None:
        """Open for appending, repairing any torn tail left by a crash."""
        self._close_append()
        cursor = self._cursor
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        while True:
            created = not os.path.exists(self.path)
            handle = open(self.path, "ab")
            try:
                status = os.fstat(handle.fileno())
                identity = (status.st_ino, status.st_dev)
                cursor.advance()
                if cursor.identity != identity:
                    # Replaced between the two opens; never repair a file
                    # by what was read from another.
                    handle.close()
                    continue
                if created and self.fsync:
                    # The file's directory entry must be durable before any
                    # record in it is acknowledged.
                    fsync_dir(parent)
                dirty = not cursor.clean
                if cursor.size > cursor.offset:
                    handle.truncate(cursor.offset)
                    handle.seek(0, os.SEEK_END)
                if cursor.unterminated:
                    handle.write(b"\n")
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
                if dirty:
                    cursor.advance()        # take in the repair
            except BaseException:
                handle.close()
                raise
            break
        self._handle, self._identity = handle, identity
        self._next_seq = cursor.tail_seq + 1
        self._tail_offset = cursor.offset
        self._digests = set(cursor.traces)

    def _sync_with_file(self) -> None:
        """Re-validate the open handle against the path before appending.

        Catches the two ways another process (or an earlier rotation in this
        one) can invalidate the handle: the path now names a *different*
        inode (rotated / compacted / replaced — writing would go to an
        unlinked file), or other writers appended records past our tail (the
        next sequence number must continue after theirs).
        """
        if self._handle is not None:
            try:
                on_disk = os.stat(self.path)
            except FileNotFoundError:
                on_disk = None
            if on_disk is not None and (on_disk.st_ino, on_disk.st_dev) == self._identity:
                if on_disk.st_size == self._tail_offset:
                    return
                if on_disk.st_size > self._tail_offset:
                    cursor = self._cursor
                    cursor.advance()
                    if cursor.identity == self._identity and cursor.clean:
                        self._next_seq = cursor.tail_seq + 1
                        self._tail_offset = cursor.offset
                        self._digests = set(cursor.traces)
                        self._handle.seek(0, os.SEEK_END)
                        return
                    # Another writer died mid-append; take the repair path.
        # Replaced, truncated under us (e.g. an external repair), or torn.
        self._prepare_append()

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
        """Durably append one event; returns the written record.

        Its traces go as digests; the record carries the ones the file does
        not hold yet in its ``traces`` table (:mod:`repro.journal.codec`).
        """
        with self._lock:
            self._acquire_file_lock()
            try:
                self._sync_with_file()
                assert self._next_seq is not None
                data, table, named = deflate(type, data, self._digests)
                record = make_record(self._next_seq, type, data, table)
                payload = record.to_line().encode("utf-8")
                # Timed around the write+fsync choke point: append_s is the
                # durability cost per record (dominated by fsync on real disks).
                append_started = time.perf_counter()
                self._write_line(payload)
                self._digests.update(table)
                registry = get_registry()
                registry.inc("journal.appends")
                registry.inc("journal.bytes", len(payload))
                registry.inc(f"journal.bytes.{type}", len(payload))
                registry.inc("journal.bytes.traces", len(record.traces_json()))
                registry.inc("journal.trace_refs", named - len(table))
                registry.observe("journal.append_s", time.perf_counter() - append_started)
                cursor = self._cursor
                if (
                    self._following
                    and cursor.identity == self._identity
                    and cursor.offset == self._tail_offset
                ):
                    cursor.fold_appended(record, payload)
                self._next_seq += 1
                self._tail_offset += len(payload)
                return record
            finally:
                self._release_file_lock()

    def close(self) -> None:
        """Release both file handles (appending or replaying reopens them)."""
        with self._lock:
            self._close_append()
            self._cursor.close()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Rotation
    # ------------------------------------------------------------------ #

    def rotate(self) -> Optional[str]:
        """Archive a finished campaign's log so a fresh one starts clean.

        If the journal already holds a campaign (a ``campaign_start`` record,
        or a compaction snapshot's copy of one), the file is renamed to
        ``journal-<k>.jsonl`` (first free ``k``) next to it and the sequence
        counter resets.  A missing or startless journal is left in place.
        Returns the archive path, or ``None`` if nothing rotated.  A journal
        this version refuses raises before the lock file is made, so the
        refusal leaves the directory as it was.
        """
        with self._lock:
            self._cursor.advance()
            self._acquire_file_lock()
            try:
                self._close_append()
                if self._cursor.advance().campaign is None:
                    return None
                base, ext = os.path.splitext(self.path)
                k = 1
                while os.path.exists(f"{base}-{k}{ext}"):
                    k += 1
                archived = f"{base}-{k}{ext}"
                os.replace(self.path, archived)
                self._cursor.close()        # it was following the archive
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
        Runs under the cross-process lock — a concurrent writer blocks, then
        transparently reopens the replaced file via its ``fstat`` check.

        Returns ``{"records_before", "records_after", "bytes_before",
        "bytes_after", "torn_records"}``, or ``None`` for an empty journal.
        """
        with self._lock:
            self._acquire_file_lock()
            try:
                self._close_append()
                view = self._cursor.advance()
                records_before = view.record_count + view.duplicates
                if not records_before:
                    return None
                # A new file: the snapshot carries every trace it names.
                data, table, _ = deflate("compaction_snapshot", view.to_snapshot(), ())
                snapshot = make_record(max(view.last_seq, 1), "compaction_snapshot", data, table)
                payload = snapshot.to_line().encode("utf-8")
                bytes_before = self._cursor.size
                publish(self.path, payload)
                self._cursor.close()        # it was following the replaced file
                return {
                    "records_before": records_before,
                    "records_after": 1,
                    "bytes_before": bytes_before,
                    "bytes_after": len(payload),
                    "torn_records": view.torn_records,
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
    with JournalCursor(path, observing=True) as cursor:
        return cursor.advance()


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
    which ignores ``seq`` and the ``traces`` table), keeping the *lowest*
    sequence number seen for each, then ordered by ``(seq, type,
    dedup_key)``.  In each input a record that names a trace comes after the
    one that brought it in, and the kept copies keep that order; copies
    sharing a seq keep the union of their tables.  The result is a pure
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
            elif record.seq == kept.seq and record.traces != kept.traces:
                best[key] = JournalRecord(
                    kept.seq, kept.type, kept.data, kept.schema, {**kept.traces, **record.traces}
                )
    return sorted(best.values(), key=lambda r: (r.seq, r.type, r.dedup_key()))


def merge_journals(paths: Sequence[str], output_path: str) -> int:
    """Merge journal files into ``output_path`` (atomically); returns record count."""
    merged = merge_records(CampaignJournal(path).records() for path in paths)
    # Durability of the publish itself, not just the bytes: an acknowledged
    # merge must still exist after power loss (the journal crash contract).
    publish(output_path, b"".join(record.to_line().encode("utf-8") for record in merged))
    return len(merged)
