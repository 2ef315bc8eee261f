"""The persistent attack corpus: deduped winning traces with provenance.

On-disk layout (one directory per corpus)::

    corpus/
      journal.jsonl        # the campaign journal; its corpus_insert records
      index.json           # schema version + per-entry summaries
      entries/<fp>.json    # full entry: the trace plus its provenance
      quarantine.json      # the permanently refused (trace, CCA) pairs
      folded.json          # the journal size and mtime the files hold

Entries are keyed by :meth:`PacketTrace.fingerprint`, so re-discovering a
trace (same timestamps, duration, MSS) in another scenario or campaign never
duplicates it — instead the entry's ``rediscoveries`` counter grows and its
recorded score is upgraded if the new find scored higher.

The corpus is a fold of the journal.  During a campaign an insert is only a
``corpus_insert`` record (:class:`~repro.campaign.scheduler.InsertLog`); when
it ends, :meth:`CorpusStore.fold` publishes each changed entry file, then
``index.json``, the behavior map and ``quarantine.json``, then (unless it
failed) ``folded.json``, once.  Every reader sees the files plus the
journal's inserts and ``job_quarantined`` events they lack, applied by
:meth:`CorpusReader.apply_journal`, so a killed or live campaign's corpus
reads as its journal says, and a finished one costs a ``stat`` of the
journal against ``folded.json``, not a parse.

:class:`CorpusReader` only ever opens files for reading, so it is safe on a
directory another process is writing; everything that only reads holds one.
:class:`CorpusStore` adds ``add``/``annotate_triage``/``fold`` and the orphan
sweep; one process at a time may hold it on a directory.  An index it cannot
use is an empty corpus to the reader and a refusal to open to the store.
Triage, the one writer outside a campaign, folds after each entry.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from ..coverage.archive import BehaviorArchive, read_archive_payload
from ..exec.quarantine import QUARANTINE_FILENAME, QuarantineStore, read_quarantine_entries
from ..exec.workers import EvaluationJob
from ..journal import CampaignJournal, JournalView
from ..journal.log import JOURNAL_FILENAME, read_corpus_journal_view
from ..netsim.simulation import SimulationConfig
from ..obs.metrics import get_registry
from ..scoring.base import ScoreFunction
from ..scoring.objectives import make_score_function
from ..storage import dump_json, file_stamp, publish_all, publish_json, read_json_object
from ..tcp.cca import cca_factory
from ..traces.constraints import may_join_population
from ..traces.trace import TRACE_CLASSES, PacketTrace
from .spec import CampaignSpec, NetworkCondition

#: index.json schema version, bumped on incompatible layout changes.
CORPUS_SCHEMA = 1

#: The file naming the journal bytes the last fold put into the files.  It is
#: not a key of index.json because the journal differs between a resumed
#: campaign and an uninterrupted one, while their index.json must not.
FOLD_MARK_FILENAME = "folded.json"

#: The provenance fields an insert may set, with their values when it does not.
ENTRY_FIELDS: Dict[str, Any] = {
    "scenario_id": "",
    "cca": "",
    "objective": "",
    "score": None,
    "generation_found": 0,
    "origin": "fuzz",
    "campaign": "",
    "condition": {},
    "derived_from": "",
    "triage": {},
    "behavior": {},
}

#: The payload fields an index.json row repeats.
_ROW_FIELDS = ("mode", "scenario_id", "cca", "objective", "score", "origin",
               "generation_found", "rediscoveries", "derived_from")

#: A serialised trace's ``type`` -> its fuzzing mode.
_MODES_BY_TYPE = {cls.__name__: mode for mode, cls in TRACE_CLASSES.items()}

#: Objective assumed for entries that carry none (builtin attacks).
DEFAULT_OBJECTIVE = "throughput"


@dataclass
class CorpusEntry:
    """One corpus member: an adversarial trace plus where it came from."""

    trace: PacketTrace
    fingerprint: str
    mode: str
    scenario_id: str                       #: e.g. "reno/traffic/throughput/base"
    cca: str                               #: CCA the trace was found against
    objective: str
    score: Optional[float]                 #: fitness when found (None for builtins)
    generation_found: int = 0
    origin: str = "fuzz"                   #: "fuzz", "builtin", "import" or "triage"
    campaign: str = ""
    condition: Dict[str, Any] = field(default_factory=dict)
    rediscoveries: int = 0                 #: times the same trace was re-found
    derived_from: str = ""                 #: fingerprint this entry was distilled from
    triage: Dict[str, Any] = field(default_factory=dict)  #: minimization/robustness metadata
    #: Behavior annotation: the serialized BehaviorSignature this trace
    #: produced when discovered (its "cell" key groups entries by failure
    #: mechanism; empty for entries never evaluated under the coverage
    #: subsystem).
    behavior: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.trace.mode is None:
            raise TypeError(f"trace type {type(self.trace).__name__} has no fuzzing mode")

    @property
    def duration(self) -> float:
        return self.trace.duration

    def sim_config(self) -> SimulationConfig:
        """The simulation configuration this entry was discovered under.

        Falls back to :class:`NetworkCondition`'s defaults for fields the
        provenance does not record (e.g. imported traces); used by replay and
        triage so an entry is always re-scored like-for-like.  Raises
        ``ValueError`` for a recorded condition that is not one.
        """
        return NetworkCondition.from_dict(self.condition).sim_config(self.trace.duration)

    def evaluation_job(self, cca: Optional[str] = None) -> EvaluationJob:
        """The evaluation that re-scores this entry as it was discovered.

        Its own trace under its recorded network condition, scored by its
        recorded objective, against the CCA it was found with — or against
        ``cca``, which is what replay varies.  Every re-evaluation of a
        stored entry (replay, the dashboard, the chaos checks) builds its job
        here, so they all land on the cache key discovery used.  Raises
        ``ValueError`` for an unregistered CCA name.
        """
        return EvaluationJob(
            cca_factory(cca or self.cca), self.sim_config(), self.trace, self.score_function()
        )

    def score_function(self) -> ScoreFunction:
        """The score function of this entry's recorded objective (the
        default one for entries that record none)."""
        return make_score_function(self.objective or DEFAULT_OBJECTIVE, self.mode)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CorpusEntry":
        trace = PacketTrace.from_dict(payload["trace"])
        return cls(
            trace=trace,
            fingerprint=payload["fingerprint"],
            mode=payload.get("mode", trace.mode),
            rediscoveries=int(payload.get("rediscoveries", 0)),
            **_given(payload),
        )


# ---------------------------------------------------------------------- #
# The one reader: the files plus the journal's unfolded inserts
# ---------------------------------------------------------------------- #


def _index_rows(corpus_dir: str) -> Optional[Dict[str, Dict[str, Any]]]:
    """``index.json`` rows, or ``None`` when missing, torn or of another schema."""
    payload = read_json_object(os.path.join(str(corpus_dir), "index.json"))
    if payload is None or payload.get("schema", CORPUS_SCHEMA) != CORPUS_SCHEMA:
        return None
    entries = payload.get("entries", {})
    return dict(entries) if isinstance(entries, dict) else None


def _journal_mark(corpus_dir: str) -> Optional[Dict[str, int]]:
    """Size and mtime of the corpus's journal (``None``: there is none)."""
    stamp = file_stamp(CampaignJournal.corpus_path(corpus_dir))
    return None if stamp is None else {"bytes": stamp[1], "mtime_ns": stamp[2]}


def _fold_mark(corpus_dir: str) -> Optional[Dict[str, int]]:
    """The journal size and mtime ``folded.json`` names (``None``: there is none)."""
    mark = read_json_object(os.path.join(str(corpus_dir), FOLD_MARK_FILENAME))
    return mark.get("journal") if mark is not None else None


def read_corpus_map(
    corpus_dir: str,
    view: Optional[JournalView] = None,
    generation_limits: Optional[Dict[str, int]] = None,
    strict: bool = False,
) -> Tuple[Dict[str, Any], int]:
    """A corpus directory's behavior map, the one function that computes it
    (``repro-coverage``, ``/api/coverage``, a fresh campaign's starting map,
    resume, a fleet's finalize, :meth:`CorpusStore.fold`).

    With no journal, or a ``folded.json`` that matches it, the map is
    ``behavior_map.json`` alone.  Otherwise it is the journal campaign's
    ``archive_baseline`` with the journal (``view``, its replay, when given)
    folded in: each scenario's deltas
    (:meth:`JournalView.behavior_state`, capped by ``generation_limits``,
    which always reads the journal), except that a completed scenario's
    journaled private archive (a fleet's) is merged over the baseline
    instead, in matrix order; its deltas would count its visits twice.

    Returns the map as :meth:`BehaviorArchive.to_dict` shapes it, and how
    many cells the file held: none when it is missing, torn or of another
    schema, which ``strict`` raises for.
    """
    stored = read_archive_payload(BehaviorArchive.corpus_path(corpus_dir), strict)
    stored = stored or BehaviorArchive().to_dict()
    journal = _journal_mark(corpus_dir)
    if journal is None or (generation_limits is None and journal == _fold_mark(corpus_dir)):
        return stored, len(stored["cells"])
    view = view if view is not None else read_corpus_journal_view(corpus_dir)
    base = (view.campaign or {}).get("archive_baseline") or stored
    private = {sid: done["archive"] for sid, done in view.completed.items()
               if isinstance(done.get("archive"), dict)}
    limits = {**(generation_limits or {}), **dict.fromkeys(private, -1)}
    cells, counters = view.behavior_state(limits)
    payload = dict(base, **(counters or {}), cells={**base["cells"], **cells})
    if private:
        archive, baseline = BehaviorArchive.from_dict(payload), BehaviorArchive.from_dict(base)
        for scenario in CampaignSpec.from_dict(view.campaign["spec"]).expand():
            if scenario.scenario_id in private:
                archive.merge(BehaviorArchive.from_dict(private[scenario.scenario_id]), baseline)
        payload = archive.to_dict()
    return payload, len(stored["cells"])


def read_corpus_index(corpus_dir: str) -> Dict[str, Dict[str, Any]]:
    """The corpus's rows (fingerprint -> summary) as :class:`CorpusReader` reads them."""
    return CorpusReader(corpus_dir).index_rows()


def _safe_fingerprint(fingerprint: str) -> bool:
    """Reject path-traversal attempts in client-supplied fingerprints."""
    return bool(fingerprint) and all(
        ch.isalnum() or ch in "-_" for ch in fingerprint
    )


def _summary(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The index.json row of an entry payload: everything except the trace."""
    trace, duration = payload["trace"], float(payload["trace"]["duration"])
    packed = trace.get("timestamps_f64le")         # the packet count, off the blob's length
    packets = len(trace["timestamps"]) if not isinstance(packed, str) else (
        len(packed) * 3 // 4 - packed.endswith("=") - packed.endswith("==")) // 8
    return dict(
        {key: payload[key] for key in _ROW_FIELDS},
        duration=duration,
        packets=packets,
        average_rate_mbps=packets / duration * int(trace.get("mss_bytes", 1500)) * 8.0 / 1e6,
        triaged=bool(payload["triage"]),
        behavior_cell=payload["behavior"].get("cell", ""),
    )


def _given(fields: Dict[str, Any]) -> Dict[str, Any]:
    """An insert's entry fields, with the defaults of those it leaves out or
    sets to ``None`` (dicts copied: the journal's payloads are shared)."""
    given = {key: fields[key] if fields.get(key) is not None else default
             for key, default in ENTRY_FIELDS.items()}
    return {key: dict(value) if isinstance(value, dict) else value for key, value in given.items()}


def _entry_payload(
    fingerprint: str, fields: Dict[str, Any], rediscoveries: int = 0
) -> Optional[Dict[str, Any]]:
    """An entry payload with every field: an insert's journaled fields and
    trace dict (never re-parsed), or a stored payload's, with defaults for
    what they leave out; ``None`` for a trace that is lost or of no mode."""
    trace = fields.get("trace")
    mode = _MODES_BY_TYPE.get(trace.get("type")) if isinstance(trace, dict) else None
    if mode is None:
        return None
    return {"fingerprint": fingerprint, "mode": mode, "rediscoveries": rediscoveries,
            **_given(fields), "trace": trace}


def _rediscovered(old: Dict[str, Any], fields: Dict[str, Any]) -> Dict[str, Any]:
    """``old`` re-found: one more rediscovery and, when the new find scored
    strictly higher on a comparable scale, its score and best-discovery
    provenance (``origin`` keeps recording where the trace *first* came from)."""
    given = _given(fields)
    payload = dict(old, rediscoveries=old["rediscoveries"] + 1)
    old_score, score = old["score"], given["score"]
    # Scores from different objectives (and different network conditions)
    # live on incomparable scales, so the best-discovery provenance is only
    # upgraded by a like-for-like rediscovery.
    comparable = old_score is None or (
        old["objective"] == given["objective"] and old["condition"] == given["condition"]
    )
    if score is not None and comparable and (old_score is None or score > old_score):
        for key in ("score", "scenario_id", "cca", "objective", "generation_found",
                    "campaign", "condition"):
            payload[key] = given[key]
        if given["behavior"]:
            payload["behavior"] = given["behavior"]
    elif given["behavior"] and not old["behavior"]:
        # A rediscovery may bring the first behavior annotation for an entry
        # that predates the coverage subsystem.
        payload["behavior"] = given["behavior"]
    return payload


class CorpusReader:
    """The corpus as of when it was opened: ``index.json``, the entry files
    and ``quarantine.json`` plus the journal's inserts and quarantines they
    lack (none, and no journal read, when ``folded.json`` matches the
    journal's size and mtime).  The journal comes from ``journal_view`` when
    a caller has replayed it, else it is read as an observer.

    Has no method that creates a directory, removes a file or publishes.
    Thread-safe.  Entry files are read lazily and memoized.
    """

    def __init__(
        self, path: str, journal_view: Optional[Callable[[], JournalView]] = None
    ) -> None:
        self.path = str(path)
        self._lock = threading.RLock()
        #: fingerprint -> entry payload applied in memory; ``_dirty`` names
        #: those the entry files do not hold yet.
        self._payloads: Dict[str, Dict[str, Any]] = {}
        self._dirty: Set[str] = set()
        self._loaded: Dict[str, CorpusEntry] = {}
        #: Journaled rediscoveries of a missing entry, applied as new inserts.
        self.repairs = 0
        # The mark is read before the index: a fold publishes it after the
        # index, so an index read later holds at least what the mark says.
        self._mark = _fold_mark(self.path)
        journal = _journal_mark(self.path)
        rows = self._read_rows()
        self._index: Dict[str, Dict[str, Any]] = rows or {}
        #: The permanent quarantine (memory only: every campaign's store starts from it).
        self.quarantine = QuarantineStore(
            read_quarantine_entries(os.path.join(self.path, QUARANTINE_FILENAME))
        )
        if journal is not None and (rows is None or journal != self._mark):
            self.apply_journal(
                journal_view() if journal_view else read_corpus_journal_view(self.path)
            )

    def _read_rows(self) -> Optional[Dict[str, Dict[str, Any]]]:
        return _index_rows(self.path)

    @property
    def unpublished(self) -> bool:
        """Whether it holds entries the files do not (yet)."""
        with self._lock:
            return bool(self._dirty)

    @staticmethod
    def is_corpus(path: str) -> bool:
        """Whether ``path`` already holds a corpus (an index.json or a journal)."""
        names = ("index.json", JOURNAL_FILENAME)
        return any(os.path.exists(os.path.join(str(path), name)) for name in names)

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._index

    def fingerprints(self) -> List[str]:
        """All fingerprints, sorted for deterministic iteration."""
        with self._lock:
            return sorted(self._index)

    def index_rows(self) -> Dict[str, Dict[str, Any]]:
        """Copy of the index: fingerprint -> summary row (no trace loads)."""
        with self._lock:
            return {fingerprint: dict(row) for fingerprint, row in self._index.items()}

    def payload(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """One entry's full payload (trace included, every field filled in),
        or ``None``.  Shared with the reader: do not change it."""
        with self._lock:
            staged = self._payloads.get(fingerprint)
        if staged is not None or not _safe_fingerprint(fingerprint):
            return staged
        raw = read_json_object(os.path.join(self.path, "entries", f"{fingerprint}.json"))
        return None if raw is None else _entry_payload(fingerprint, raw, raw.get("rediscoveries", 0))

    def get(self, fingerprint: str) -> CorpusEntry:
        """The entry stored under ``fingerprint`` (``KeyError`` when there is
        no readable entry for it), read once and memoized."""
        with self._lock:
            entry = self._loaded.get(fingerprint)
            if entry is None:
                try:
                    entry = CorpusEntry.from_dict(self.payload(fingerprint))
                except (KeyError, TypeError, ValueError):  # TypeError: no file (None)
                    raise KeyError(fingerprint) from None
                self._loaded[fingerprint] = entry
            return entry

    def entries(self) -> Iterator[CorpusEntry]:
        """Every entry, in fingerprint order."""
        for fingerprint in self.fingerprints():
            yield self.get(fingerprint)

    def apply_journal(self, view: JournalView) -> None:
        """Apply a journal's inserts and quarantines in memory, idempotently."""
        for data in view.inserts:
            self.apply(data)
        for entry in view.quarantined:
            self.quarantine.apply_event(entry)

    def apply(self, data: Dict[str, Any]) -> None:
        """Apply one journaled ``corpus_insert`` in memory, idempotently.

        * a ``new`` insert is applied only if the fingerprint is still absent;
        * a rediscovery is applied only while the stored entry's counter is
          below the journaled post-insert value;
        * a rediscovery whose entry is missing or unreadable (hand-pruned
          corpus dir, partial copy, journal merged from another machine) is
          applied as new instead, counted in ``repairs``;
        * one journaled without a post-insert value (a duplicate builtin
          registration, a fleet worker's find) is a no-op.

        Each is decided on the index row before any trace is read, and a
        rediscovery the row lacks on the entry file too, which a fold killed
        before its ``index.json`` publish leaves ahead of its row.  An
        insert whose trace the journal lost is skipped.
        """
        fingerprint, after = data["fingerprint"], data.get("rediscoveries_after")
        with self._lock:
            row = self._index.get(fingerprint)
            if data["new"]:
                if row is not None:
                    return
            elif after is None or (row is not None and row["rediscoveries"] >= after):
                return
            old = None if row is None else self.payload(fingerprint)
            if old is not None and old["rediscoveries"] >= after:
                self._index[fingerprint] = _summary(old)        # the row catches up
                return
            fields = data["entry"]
            payload = _entry_payload(fingerprint, fields) if old is None else (
                _rediscovered(old, fields)
            )
            if payload is None:
                return
            self._stage(fingerprint, payload)
            if not data["new"] and old is None:
                self.repairs += 1
                get_registry().inc("campaign.insert_warnings")

    def _stage(self, fingerprint: str, payload: Dict[str, Any]) -> None:
        """Hold ``payload`` as the entry under ``fingerprint``."""
        self._payloads[fingerprint] = payload
        self._dirty.add(fingerprint)
        self._index[fingerprint] = _summary(payload)
        self._loaded.pop(fingerprint, None)

    def seeds_for(
        self,
        mode: str,
        duration: float,
        limit: int,
        objective: Optional[str] = None,
        bottleneck_rate_mbps: Optional[float] = None,
    ) -> List[PacketTrace]:
        """Corpus traces usable as initial-population seeds for a scenario.

        Compatibility is :func:`~repro.traces.constraints.may_join_population`
        — same mode, same duration and, for link mode, an average rate
        matching the scenario's bottleneck.  Curated builtins
        come first, then entries found under the requesting scenario's
        ``objective`` ordered best-score-first (scores from *different*
        objectives live on incomparable scales, so cross-objective entries
        rank after them, score-ignored), tie-broken on the fingerprint so the
        pick is deterministic.  Selection runs on the index alone; only the
        winning entries' trace files are read from disk.
        """
        if limit <= 0:
            return []

        with self._lock:
            rows = [
                (fingerprint, row)
                for fingerprint, row in self._index.items()
                if may_join_population(
                    row["mode"],
                    row["duration"],
                    row.get("average_rate_mbps"),
                    into_mode=mode,
                    into_duration=duration,
                    link_rate_mbps=bottleneck_rate_mbps,
                )
            ]

        def rank(item):
            fingerprint, row = item
            if row["origin"] == "builtin":
                return (0, 0.0, fingerprint)
            same_objective = objective is None or row["objective"] == objective
            score = row["score"] if row["score"] is not None else float("-inf")
            return (1 if same_objective else 2, -score if same_objective else 0.0, fingerprint)

        rows.sort(key=rank)
        return [self.get(fingerprint).trace.copy() for fingerprint, _ in rows[:limit]]

    def stats(self) -> Dict[str, Any]:
        """Aggregate corpus composition (for reports)."""
        with self._lock:
            rows = list(self._index.values())
        by_mode: Dict[str, int] = {}
        by_cca: Dict[str, int] = {}
        by_origin: Dict[str, int] = {}
        annotated = 0
        cells = set()
        for row in rows:
            by_mode[row["mode"]] = by_mode.get(row["mode"], 0) + 1
            by_origin[row["origin"]] = by_origin.get(row["origin"], 0) + 1
            if row["cca"]:
                by_cca[row["cca"]] = by_cca.get(row["cca"], 0) + 1
            cell = row.get("behavior_cell", "")
            if cell:
                annotated += 1
                cells.add(cell)
        return {
            "path": self.path,
            "entries": len(rows),
            "by_mode": by_mode,
            "by_cca": by_cca,
            "by_origin": by_origin,
            "behavior_annotated": annotated,
            "behavior_cells": len(cells),
        }


class CorpusStore(CorpusReader):
    """The corpus writer: fingerprint-deduped, published by :meth:`fold`.

    Opening one claims the directory (one writer at a time): it creates
    ``entries/`` and sweeps orphan temp files.  Inserts change only its
    memory until the next :meth:`fold`.
    """

    def _read_rows(self) -> Optional[Dict[str, Dict[str, Any]]]:
        self._entries_dir = os.path.join(self.path, "entries")
        self._index_path = os.path.join(self.path, "index.json")
        # Refuse, before touching anything, an index this version cannot
        # use: the next fold would replace it with what we failed to read.
        rows = _index_rows(self.path)
        if rows is None and os.path.exists(self._index_path):
            raise ValueError(
                f"corpus at {self.path} has an index.json that is torn or not "
                f"schema {CORPUS_SCHEMA}; refusing to open it for writing"
            )
        os.makedirs(self._entries_dir, exist_ok=True)
        self._sweep_orphan_tmp_files()
        return rows

    def _sweep_orphan_tmp_files(self) -> None:
        """Remove ``*.tmp`` droppings left by interrupted atomic writes.

        :func:`repro.storage.publish` guarantees the *target* file survives a
        crash, but dying between the temp-file write and the rename orphans
        the ``<name>.tmp`` next to it; sweeping on load keeps killed
        campaigns from accumulating them.  Only this process may write to a
        corpus it has opened (the single-writer assumption the fold makes).
        """
        for directory in (self.path, self._entries_dir):
            try:
                names = os.listdir(directory)
            except OSError:
                continue
            for name in names:
                if name.endswith(".tmp"):
                    try:
                        os.remove(os.path.join(directory, name))
                    except OSError:
                        pass

    def add(
        self,
        trace: PacketTrace,
        journal: Optional[Callable[[Dict[str, Any]], Any]] = None,
        *,
        scenario_id: str,
        cca: str = "",
        objective: str = "",
        score: Optional[float] = None,
        generation_found: int = 0,
        origin: str = "fuzz",
        campaign: str = "",
        condition: Optional[Dict[str, Any]] = None,
        derived_from: str = "",
        triage: Optional[Dict[str, Any]] = None,
        behavior: Optional[Dict[str, Any]] = None,
    ) -> bool:
        """Insert a trace; returns True iff it was new (not a duplicate).

        Decided on the index and applied by :meth:`apply`, like a journaled
        insert: a duplicate counts a rediscovery and may upgrade the score,
        and re-registering a builtin attack or a triage-minimized variant is
        a no-op.  ``journal``, when given, gets the insert's
        ``corpus_insert`` fields first (a campaign's write-ahead record).
        """
        if trace.mode is None:
            raise TypeError(f"trace type {type(trace).__name__} has no fuzzing mode")
        fingerprint = trace.fingerprint()
        fields = {
            "scenario_id": scenario_id, "cca": cca, "objective": objective, "score": score,
            "generation_found": generation_found, "origin": origin, "campaign": campaign,
            "condition": condition, "derived_from": derived_from, "triage": triage,
            "behavior": behavior,
        }
        # The record carries what differs from the defaults (apply restores them).
        entry = {key: value for key, value in fields.items()
                 if value not in (None, ENTRY_FIELDS[key])}
        entry["trace"] = trace.to_dict()
        with self._lock:
            row = self._index.get(fingerprint)
            refind = row is not None and origin not in ("builtin", "triage")
            data = {
                "fingerprint": fingerprint,
                "new": row is None,
                "rediscoveries_after": row["rediscoveries"] + 1 if refind else None,
                "entry": entry,
            }
            if journal is not None:
                journal(data)
            self.apply(data)
            return row is None

    def annotate_triage(self, fingerprint: str, payload: Dict[str, Any]) -> None:
        """Attach triage metadata to an existing entry (``KeyError`` if none).

        The verdict is *replaced*, not merged: it describes one triage run,
        and keeping keys from an earlier run (e.g. a classification computed
        before a forced re-triage with different settings) would present two
        inconsistent runs as one result.  A non-empty ``triage`` dict is
        also what marks an entry as already triaged, making corpus triage
        idempotent across runs.
        """
        with self._lock:
            entry = self.payload(fingerprint) if fingerprint in self._index else None
            if entry is None:
                raise KeyError(fingerprint)
            self._stage(fingerprint, dict(entry, triage=dict(payload)))

    def fold(
        self,
        mark: bool = True,
        archive: Optional[BehaviorArchive] = None,
        quarantine: Optional[QuarantineStore] = None,
    ) -> None:
        """Publish each entry changed since the last fold, then
        ``index.json``, then the behavior map and the quarantine, then
        ``folded.json`` naming the journal bytes they now hold (nothing,
        when nothing changed).  Call it when the journal holds every insert
        and quarantine this store applied; dying before or inside it loses
        nothing, since every reader applies what the files lack and reads
        the map from the journal until ``folded.json`` matches it.

        The map is ``archive`` (a campaign's own), or else the journal's
        (:func:`read_corpus_map`); the quarantine is ``quarantine`` (a
        campaign's store), or else this reader's.  Each is written only
        when it differs from its file (``quarantine.json`` not at all while
        it would be empty).  ``mark=False``, for a campaign that raised (its
        journal may hold a fleet's inserts this store never applied), writes
        no ``folded.json``.
        """
        with self._lock:
            journal = _journal_mark(self.path) if mark else None
            marking = journal is not None and journal != self._mark
            if self._dirty or journal != self._mark:
                publish_all(
                    (os.path.join(self._entries_dir, f"{fingerprint}.json"),
                     dump_json(self._payloads[fingerprint]))
                    for fingerprint in sorted(self._dirty)
                )
                publish_json(self._index_path, {"entries": self._index, "schema": CORPUS_SCHEMA})
            if archive is not None or marking:
                path = BehaviorArchive.corpus_path(self.path)
                behavior = archive.to_dict() if archive is not None else (
                    read_corpus_map(self.path, strict=True)[0]
                )
                if read_json_object(path) != behavior:
                    publish_json(path, behavior)
            if quarantine is not None or marking:
                path = os.path.join(self.path, QUARANTINE_FILENAME)
                refused = (quarantine if quarantine is not None else self.quarantine).to_dict()
                if (refused["entries"] or os.path.exists(path)) and read_json_object(path) != refused:
                    publish_json(path, refused)
                self.quarantine = QuarantineStore(refused["entries"])
            if marking:
                publish_json(os.path.join(self.path, FOLD_MARK_FILENAME), {"journal": journal})
            self._dirty.clear()
            self._mark = journal


def provenance_chain(
    index: Dict[str, Dict[str, Any]], fingerprint: str
) -> List[Dict[str, Any]]:
    """Walk ``derived_from`` links back to the root, index rows only.

    Returns one row per hop starting at ``fingerprint`` itself; a dangling
    or cyclic link ends the chain rather than erroring (triage may have
    minimized from an entry that was since re-imported elsewhere).
    """
    chain: List[Dict[str, Any]] = []
    seen: set = set()
    current = fingerprint
    while current and current not in seen:
        seen.add(current)
        row = index.get(current)
        if row is None:
            break
        chain.append({"fingerprint": current, **row})
        current = row.get("derived_from") or ""
    return chain
