"""Journal record format.

One record per line of JSONL, serialised canonically (sorted keys, no
whitespace) so byte content is a pure function of logical content:

``{"crc": ..., "data": {...}, "schema": 2, "seq": N, "traces": {...}, "type": "..."}``

* ``schema`` versions the record layout itself.  2 names traces by digest
  (:mod:`repro.journal.codec`); 1 carried them inline and is still read.
* ``traces`` (schema 2, only when non-empty) maps digest -> trace for the
  traces this record is the first in its file to name.  It is encoding, not
  content: the dedup key leaves it out, so a record re-done after a resume
  collapses onto the original whether or not either brought a table.
* ``seq`` is the writer-local monotonic sequence number; replay folds records
  in ``seq`` order, and :func:`repro.journal.log.merge_records` renumbers it.
* ``crc`` is a blake2b digest over the rest of the record.  An append that is
  cut short by a crash leaves a final line that either has no terminating
  newline or fails the checksum; readers skip exactly that torn tail and
  refuse anything corrupt earlier in the file.

``data`` is the only part of a record whose size grows with the campaign, so
it is encoded exactly once: the line and both digests are *framed* around
that one canonical string (``[schema,seq,"type",<data>]`` for ``crc``, with
``,<traces>`` before the ``]`` when there is a table, and
``[schema,"type",<data>]`` for the dedup key), which yields the same bytes as
serialising the whole structure would.  A reader accepts a line only if it is
byte-for-byte the canonical encoding of what it parses to — that covers the
checksum and, unlike a checksum over parsed values, every spelling JSON allows
for the same value.

The dedup key deliberately excludes ``seq``: the same logical event recorded
by two machines (or by a run and its resumed continuation) collapses to one
record under merge and replay.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional

JOURNAL_SCHEMA = 2
#: Every record layout a reader accepts.
READ_SCHEMAS = (1, JOURNAL_SCHEMA)

EVENT_TYPES = (
    "campaign_start",
    "campaign_resume",
    "scenario_lease",
    "generation_checkpoint",
    "behavior_delta",
    "corpus_insert",
    "scenario_complete",
    "job_quarantined",
    "compaction_snapshot",
)


class JournalError(Exception):
    """Base class for journal failures."""


class JournalCorruption(JournalError):
    """A record failed to parse or its checksum did not match."""


#: ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` without
#: building an encoder per call (every record, table and digest encodes).
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators."""
    return _CANONICAL.encode(payload)


def _digest(text: str, size: int) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=size).hexdigest()


class JournalRecord:
    """One event in the log.  ``data`` must be JSON-native.

    Immutable by convention.  Equality is over ``(seq, type, data, schema,
    traces)``.
    """

    __slots__ = ("seq", "type", "schema", "_data", "_json", "_dedup", "_traces", "_traces_json")

    def __init__(
        self,
        seq: int,
        type: str,
        data: Dict[str, Any],
        schema: int = JOURNAL_SCHEMA,
        traces: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.seq = seq
        self.type = type
        self.schema = schema
        self._data: Optional[Dict[str, Any]] = data
        #: Canonical JSON of ``data`` and of the table; held only by records
        #: built for appending (:func:`make_record`), whose ``data`` and
        #: ``traces`` are parsed from it on first use.
        self._json: Optional[str] = None
        self._traces: Optional[Dict[str, Any]] = traces or {}
        self._traces_json: Optional[str] = None
        self._dedup: Optional[str] = None

    @property
    def data(self) -> Dict[str, Any]:
        if self._data is None:
            self._data = json.loads(self._json)  # type: ignore[arg-type]
        return self._data

    @property
    def traces(self) -> Dict[str, Any]:
        """Digest -> trace dict for the traces this record brings into its file."""
        if self._traces is None:
            self._traces = json.loads(self._traces_json)  # type: ignore[arg-type]
        return self._traces

    def _data_json(self) -> str:
        return self._json if self._json is not None else canonical_json(self._data)

    def traces_json(self) -> str:
        """The table's canonical JSON; ``""`` when the record has none."""
        if self._traces_json is None:
            self._traces_json = canonical_json(self._traces) if self._traces else ""
        return self._traces_json

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JournalRecord):
            return NotImplemented
        return (self.seq, self.type, self.schema) == (
            other.seq, other.type, other.schema
        ) and self.data == other.data and self.traces == other.traces

    def __repr__(self) -> str:
        return (
            f"JournalRecord(seq={self.seq!r}, type={self.type!r}, "
            f"data={self.data!r}, schema={self.schema!r}, traces={self.traces!r})"
        )

    def _framed(self, data_json: str, traces_json: str) -> "tuple[str, str]":
        """``(checksum, line)`` around one canonical encoding of ``data``
        (and of the table, if there is one)."""
        type_json = json.dumps(self.type)
        table = f",{traces_json}" if traces_json else ""
        crc = _digest(f"[{self.schema:d},{self.seq:d},{type_json},{data_json}{table}]", size=4)
        table = f'"traces":{traces_json},' if traces_json else ""
        line = (
            f'{{"crc":"{crc}","data":{data_json},"schema":{self.schema:d},'
            f'"seq":{self.seq:d},{table}"type":{type_json}}}\n'
        )
        return crc, line

    def checksum(self) -> str:
        return self._framed(self._data_json(), self.traces_json())[0]

    def _dedup_of(self, data_json: str) -> str:
        return _digest(f"[{self.schema:d},{json.dumps(self.type)},{data_json}]", size=8)

    def dedup_key(self) -> str:
        """Content identity (``seq``- and table-independent) used by merge and replay."""
        if self._dedup is None:
            self._dedup = self._dedup_of(self._data_json())
        return self._dedup

    def to_line(self) -> str:
        return self._framed(self._data_json(), self.traces_json())[1]

    @classmethod
    def from_line(cls, line: str) -> "JournalRecord":
        try:
            payload = json.loads(line)
        except ValueError as exc:
            raise JournalCorruption(f"unparseable journal line: {exc}") from exc
        if not isinstance(payload, dict):
            raise JournalCorruption("journal line is not an object")
        try:
            record = cls(
                seq=int(payload["seq"]),
                type=str(payload["type"]),
                data=payload["data"],
                schema=int(payload["schema"]),
                traces=payload.get("traces"),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            # OverflowError: a damaged digit can turn ``seq`` into ``1e999``.
            raise JournalCorruption(f"malformed journal record: {exc}") from exc
        if record.schema not in READ_SCHEMAS:
            raise JournalCorruption(
                f"unsupported journal schema {record.schema} (expected one of {READ_SCHEMAS})"
            )
        if not isinstance(record.data, dict):
            raise JournalCorruption("journal record data is not an object")
        traces = record._traces
        if not isinstance(traces, dict) or not all(isinstance(t, dict) for t in traces.values()):
            raise JournalCorruption("journal record traces table is not an object of traces")
        # The one re-serialisation a read costs: it verifies the line and,
        # while the string is at hand, settles the dedup key every replay
        # asks for — so the string itself need not be kept per record.
        data_json = canonical_json(record.data)
        framed = record._framed(data_json, canonical_json(traces) if traces else "")[1]
        if framed != (line if line.endswith("\n") else line + "\n"):
            raise JournalCorruption(f"checksum mismatch on seq {record.seq}")
        record._dedup = record._dedup_of(data_json)
        return record


def make_record(
    seq: int, type: str, data: Dict[str, Any], traces: Optional[Dict[str, Any]] = None
) -> JournalRecord:
    """Build a record for appending, encoding ``data`` and ``traces`` exactly once.

    Encoding up front rejects non-serialisable payloads at append time (not
    at some later read); the record's ``data`` and ``traces`` are parsed back
    from that encoding on first use, which canonicalises containers (tuples
    become lists), so a record held in memory equals its re-read form.
    """
    if type not in EVENT_TYPES:
        raise JournalError(f"unknown journal event type: {type!r}")
    record = JournalRecord(seq=seq, type=type, data=None)  # type: ignore[arg-type]
    try:
        record._json = canonical_json(data)
        if traces:
            record._traces, record._traces_json = None, canonical_json(traces)
    except (TypeError, ValueError) as exc:
        raise JournalError(f"journal event data is not JSON-serialisable: {exc}") from exc
    return record
