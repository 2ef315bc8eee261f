"""Read-only assembly of dashboard payloads from campaign artifacts.

One :class:`DashboardQuery` per mounted corpus directory.  Every method
returns a JSON-able dict and never raises on missing, torn or mid-write
artifacts — the server layer turns whatever comes back into a complete
response, so a poll can race the owning campaign's writes at any point and
still render.  All reads go through the strictly read-only module helpers;
see the package docstring for why the writer-side classes are off limits.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..analysis.reporting import shape_coverage, shape_rankings
from ..campaign.corpus import CorpusReader, provenance_chain, read_corpus_map
from ..journal.log import JOURNAL_FILENAME, JournalCursor
from ..journal.view import JournalView
from ..obs.sinks import METRICS_FILENAME, tail_metrics_records
from ..obs.status import StatusWatcher
from ..storage import file_stamp

#: Longest long-poll wait the stream endpoint will honour (seconds).
MAX_STREAM_WAIT_S = 25.0

#: Poll interval while a long-poll waits for fresh records.
STREAM_POLL_INTERVAL_S = 0.2


class DashboardQuery:
    """Assembles every non-replay endpoint's payload for one corpus dir."""

    def __init__(self, corpus_dir: str) -> None:
        self.corpus_dir = str(corpus_dir)
        self.metrics_path = Path(self.corpus_dir) / METRICS_FILENAME
        # The watcher accumulates stream records between polls; requests
        # arrive from several server threads, so folds are serialised.
        self._watcher = StatusWatcher(self.corpus_dir)
        self._watcher_lock = threading.Lock()
        # One observer-policy cursor for every journal-backed endpoint: the
        # first request parses the journal, later ones what was appended.
        self._journal = JournalCursor(
            str(Path(self.corpus_dir) / JOURNAL_FILENAME), observing=True
        )
        self._journal_lock = threading.Lock()
        #: The last corpus read, and the stamps of the files it was read from.
        self._corpus_read: Optional[Tuple[Tuple[Any, ...], CorpusReader]] = None
        self._corpus_lock = threading.Lock()

    def close(self) -> None:
        with self._journal_lock:
            self._journal.close()

    def _journal_view(self) -> JournalView:
        with self._journal_lock:
            return self._journal.advance().copy()

    # ------------------------------------------------------------------ #
    # /api/status
    # ------------------------------------------------------------------ #

    def status(self) -> Dict[str, Any]:
        """Live campaign status (same shaping the CLI renders)."""
        with self._watcher_lock:
            return self._watcher.poll()

    # ------------------------------------------------------------------ #
    # /api/stream
    # ------------------------------------------------------------------ #

    def stream(
        self, offset: int = 0, wait: float = 0.0
    ) -> Dict[str, Any]:
        """Telemetry records appended past byte ``offset`` (long-poll).

        Stateless: the client carries the returned ``offset`` into its next
        request, so any number of dashboards can tail one stream without
        server-side subscriptions.  With ``wait > 0`` the call blocks up to
        that many seconds (capped) for fresh records before returning an
        empty batch.  Only newline-complete lines are consumed, so a
        response can never contain a partial record even while the campaign
        is mid-append.
        """
        try:
            offset = max(0, int(offset))
        except (TypeError, ValueError):
            offset = 0
        deadline = time.monotonic() + min(max(0.0, float(wait)), MAX_STREAM_WAIT_S)
        while True:
            records, new_offset = tail_metrics_records(self.metrics_path, offset)
            if records or new_offset < offset or time.monotonic() >= deadline:
                return {
                    "records": records,
                    "offset": new_offset,
                    "reset": new_offset < offset,
                }
            offset = new_offset
            time.sleep(STREAM_POLL_INTERVAL_S)

    # ------------------------------------------------------------------ #
    # /api/corpus
    # ------------------------------------------------------------------ #

    def _corpus(self) -> CorpusReader:
        """The corpus now: its files plus, through this query's journal
        cursor, the journal's inserts and quarantines they lack.  Read again
        only when ``index.json`` (every fold replaces it) or the journal has
        changed."""
        stamps = tuple(file_stamp(os.path.join(self.corpus_dir, name))
                       for name in ("index.json", JOURNAL_FILENAME))
        with self._corpus_lock:
            if self._corpus_read is None or self._corpus_read[0] != stamps:
                self._corpus_read = (stamps, CorpusReader(self.corpus_dir, self._journal_view))
            return self._corpus_read[1]

    def corpus_index(self) -> Dict[str, Any]:
        """The corpus index as a sorted row list (no trace files read)."""
        index = self._corpus().index_rows()
        rows = [
            {"fingerprint": fingerprint, **row}
            for fingerprint, row in sorted(index.items())
        ]
        return {"corpus_dir": self.corpus_dir, "entries": len(rows), "rows": rows}

    def corpus_entry(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """One entry's full payload plus its provenance chain, or ``None``."""
        corpus = self._corpus()
        payload = corpus.payload(fingerprint)
        if payload is None:
            return None
        return dict(payload, provenance=provenance_chain(corpus.index_rows(), fingerprint))

    # ------------------------------------------------------------------ #
    # /api/coverage
    # ------------------------------------------------------------------ #

    def coverage(self) -> Dict[str, Any]:
        """Behavior-map heatmap + gaps, read as ``repro-coverage`` reads it
        (:func:`~repro.campaign.corpus.read_corpus_map`)."""
        view = self._journal_view()
        payload, archive_cells = read_corpus_map(self.corpus_dir, view)
        shaped = shape_coverage(payload["cells"])
        shaped["sources"] = {
            "archive_cells": archive_cells,
            "journal_cells": len(view.behavior_state()[0]),
            "torn_records": view.torn_records,
            "fenced_records": view.fenced_records,
        }
        return shaped

    # ------------------------------------------------------------------ #
    # /api/rankings
    # ------------------------------------------------------------------ #

    def rankings(self) -> Dict[str, Any]:
        """Per-CCA vulnerability table from journal + corpus + triage."""
        view = self._journal_view()
        corpus = self._corpus()
        index = corpus.index_rows()
        triage_rows = []
        for fingerprint, row in sorted(index.items()):
            if not row.get("triaged"):
                continue
            verdict = (corpus.payload(fingerprint) or {}).get("triage")
            if isinstance(verdict, dict) and verdict:
                triage_rows.append({"fingerprint": fingerprint, **verdict})
        shaped = shape_rankings(
            view.outcome_rows(),
            index,
            quarantine_entries=corpus.quarantine.entries(),
            triage_rows=triage_rows,
        )
        shaped["corpus_dir"] = self.corpus_dir
        return shaped

    # ------------------------------------------------------------------ #
    # /metrics
    # ------------------------------------------------------------------ #

    def prometheus(self) -> str:
        """The bytes ``status --prometheus`` prints: the status watcher's
        rendering of the latest snapshot (a poll tails, never re-folds)."""
        with self._watcher_lock:
            text = self._watcher.prometheus()
        return text if text is not None else "# no metrics recorded yet\n"
