"""Permanent quarantine for deterministically failing evaluations.

A :class:`QuarantineStore` remembers ``(trace fingerprint, CCA identity)``
pairs that failed deterministically (crash, garbage return, timeout, or a
worker-killer that exhausted its retries) together with provenance: the
failure kind, message, attempt count and — when a campaign attaches context
— the scenario, lease epoch and worker that first saw the failure.

The store is memory plus a journal hook.  ``record`` first hands the entry
to the ``journal_hook`` (which appends a ``job_quarantined`` event), then
applies it.  ``quarantine.json`` is a fold of the journal, like the corpus
files: :class:`~repro.campaign.corpus.CorpusReader` reads it together with
the journal's unfolded events (through :meth:`apply_event`, idempotent and
never re-journaling), every campaign's store starts from that reader, and
:meth:`~repro.campaign.corpus.CorpusStore.fold` publishes :meth:`to_dict`.
The file's contents are fully deterministic (sorted entries, no wall
times): two runs quarantining the same jobs produce byte-identical files.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..storage import read_json_object
from .faults import EvaluationFailure

QUARANTINE_FILENAME = "quarantine.json"
QUARANTINE_SCHEMA = 1


def read_quarantine_entries(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Well-formed entries of a ``quarantine.json``, strictly read-only.

    Missing, torn or malformed reads as ``[]``.
    """
    payload = read_json_object(path) or {}
    entries = payload.get("entries")
    return [
        dict(entry)
        for entry in (entries if isinstance(entries, list) else [])
        if isinstance(entry, dict) and "fingerprint" in entry and "cca" in entry
    ]


class QuarantineStore:
    """Thread-safe set of quarantined jobs, optionally journal-backed."""

    def __init__(
        self,
        entries: Iterable[Dict[str, Any]] = (),
        journal_hook: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> None:
        self._journal_hook = journal_hook
        self._lock = threading.RLock()
        self._entries: Dict[Tuple[str, str], Dict[str, Any]] = {}
        #: Provenance merged into every new entry; fleet workers set
        #: ``{"scenario_id": ..., "lease_epoch": ..., "worker": ...}`` per
        #: scenario (the view fences events by ``scenario_id`` +
        #: ``lease_epoch`` on a steal), single-process campaigns stamp only
        #: ``scenario_id`` (epoch-less events are never fenced, matching
        #: serial inserts).
        self.context: Dict[str, Any] = {}
        for entry in entries:
            self.apply_event(entry)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def entries(self) -> List[Dict[str, Any]]:
        """All entries, sorted by (fingerprint, cca) — the file order."""
        with self._lock:
            return [dict(self._entries[key]) for key in sorted(self._entries)]

    def to_dict(self) -> Dict[str, Any]:
        """The ``quarantine.json`` payload."""
        return {"schema": QUARANTINE_SCHEMA, "entries": self.entries()}

    def find(self, fingerprint: str, cca: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            entry = self._entries.get((fingerprint, cca))
            return dict(entry) if entry is not None else None

    def record(self, failure: EvaluationFailure) -> bool:
        """Quarantine a freshly observed deterministic failure.

        Write-ahead: the journal hook runs before the entry is applied.
        Returns True when the entry is new; an already-known
        (fingerprint, cca) is a no-op that never re-journals.
        """
        entry = failure.to_dict()
        entry.pop("quarantined", None)
        with self._lock:
            entry.update(self.context)
            key = (entry["fingerprint"], entry["cca"])
            if key in self._entries:
                return False
            if self._journal_hook is not None:
                self._journal_hook(dict(entry))
            self._entries[key] = entry
            return True

    def apply_event(self, entry: Dict[str, Any]) -> bool:
        """Idempotently apply a stored entry or a replayed ``job_quarantined`` event."""
        entry = dict(entry)
        key = (str(entry.get("fingerprint", "unknown")), str(entry.get("cca", "unknown")))
        with self._lock:
            if key in self._entries:
                return False
            self._entries[key] = entry
            return True
