"""The persistent attack corpus: deduped winning traces with provenance.

On-disk layout (one directory per corpus)::

    corpus/
      index.json           # schema version + per-entry summaries
      entries/<fp>.json    # full entry: the trace plus its provenance

Entries are keyed by :meth:`PacketTrace.fingerprint`, so re-discovering a
trace (same timestamps, duration, MSS) in another scenario or campaign never
duplicates it — instead the entry's ``rediscoveries`` counter grows and its
recorded score is upgraded if the new find scored higher.  Every write is
published through :func:`repro.storage.publish` straight away, so a corpus
directory is always loadable even if a campaign is interrupted mid-run.

Access comes in two types.  :class:`CorpusReader` only ever opens files for
reading, so it is safe on a directory another process is writing, and
everything that only reads (fleet workers, ``report``/``replay``,
``repro-triage --corpus``, ``repro-coverage``) holds one.
:class:`CorpusStore` is that reader plus ``add``/``annotate_*``, the orphan
sweep and the index publish; one process at a time may hold it on a
directory.  Both go through the same parse of each file; an index it cannot
use is an empty corpus to the reader and a refusal to open to the store.

Entries arrive two ways: a campaign's harvest, through the write-ahead
:class:`~repro.campaign.scheduler.InsertLog` (``repro-fuzz`` runs a
one-scenario campaign, so its ``--output-dir`` is a corpus like any other),
and the triage pipeline's minimized variants.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from ..exec.workers import EvaluationJob
from ..netsim.simulation import SimulationConfig
from ..obs.metrics import get_registry
from ..scoring.base import ScoreFunction
from ..scoring.objectives import make_score_function
from ..storage import publish, read_json_object
from ..tcp.cca import cca_factory
from ..traces.constraints import may_join_population
from ..traces.trace import PacketTrace
from .spec import NetworkCondition

#: index.json schema version, bumped on incompatible layout changes.
CORPUS_SCHEMA = 1

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

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "mode": self.mode,
            "scenario_id": self.scenario_id,
            "cca": self.cca,
            "objective": self.objective,
            "score": self.score,
            "generation_found": self.generation_found,
            "origin": self.origin,
            "campaign": self.campaign,
            "condition": dict(self.condition),
            "rediscoveries": self.rediscoveries,
            "derived_from": self.derived_from,
            "triage": dict(self.triage),
            "behavior": dict(self.behavior),
            "trace": self.trace.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CorpusEntry":
        trace = PacketTrace.from_dict(payload["trace"])
        return cls(
            trace=trace,
            fingerprint=payload["fingerprint"],
            mode=payload.get("mode", trace.mode),
            scenario_id=payload.get("scenario_id", ""),
            cca=payload.get("cca", ""),
            objective=payload.get("objective", ""),
            score=payload.get("score"),
            generation_found=int(payload.get("generation_found", 0)),
            origin=payload.get("origin", "fuzz"),
            campaign=payload.get("campaign", ""),
            condition=dict(payload.get("condition", {})),
            rediscoveries=int(payload.get("rediscoveries", 0)),
            derived_from=payload.get("derived_from", ""),
            triage=dict(payload.get("triage", {})),
            behavior=dict(payload.get("behavior", {})),
        )

    def summary(self) -> Dict[str, Any]:
        """The compact index.json row (everything except the trace itself)."""
        return {
            "mode": self.mode,
            "scenario_id": self.scenario_id,
            "cca": self.cca,
            "objective": self.objective,
            "score": self.score,
            "origin": self.origin,
            "duration": self.duration,
            "packets": self.trace.packet_count,
            "average_rate_mbps": self.trace.average_rate_mbps,
            "generation_found": self.generation_found,
            "rediscoveries": self.rediscoveries,
            "derived_from": self.derived_from,
            "triaged": bool(self.triage),
            "behavior_cell": self.behavior.get("cell", ""),
        }


# ---------------------------------------------------------------------- #
# Reading the files
# ---------------------------------------------------------------------- #
#
# An observer (dashboard, status poll, read-only CLI command, fleet worker)
# must never construct a CorpusStore against a live campaign's directory:
# its constructor creates entries/, sweeps orphan *.tmp files (which would
# race the owning campaign's in-flight publishes) and writes index.json when
# missing.  These helpers only ever open files for reading and return
# ``None``/empty instead of raising — a query answering mid-write should
# render what it can.  The writer parses through them too.


def _index_rows(corpus_dir: str) -> Optional[Dict[str, Dict[str, Any]]]:
    """``index.json`` rows, or ``None`` when missing, torn or of another schema."""
    payload = read_json_object(os.path.join(str(corpus_dir), "index.json"))
    if payload is None or payload.get("schema", CORPUS_SCHEMA) != CORPUS_SCHEMA:
        return None
    entries = payload.get("entries", {})
    return dict(entries) if isinstance(entries, dict) else None


def read_corpus_index(corpus_dir: str) -> Dict[str, Dict[str, Any]]:
    """``index.json`` rows (fingerprint -> summary), ``{}`` when unusable.

    Publishes are atomic, so a *torn* index can only be seen through a
    non-atomic copy of the directory, but an observer should answer sanely
    against that too.
    """
    return _index_rows(corpus_dir) or {}


def _safe_fingerprint(fingerprint: str) -> bool:
    """Reject path-traversal attempts in client-supplied fingerprints."""
    return bool(fingerprint) and all(
        ch.isalnum() or ch in "-_" for ch in fingerprint
    )


def read_corpus_entry(corpus_dir: str, fingerprint: str) -> Optional[Dict[str, Any]]:
    """One entry's full JSON payload (trace included), or ``None``."""
    if not _safe_fingerprint(fingerprint):
        return None
    return read_json_object(
        os.path.join(str(corpus_dir), "entries", f"{fingerprint}.json")
    )


class CorpusReader:
    """Read-only view of a corpus directory: its index as of when it was
    opened, its entry files as of when each is first asked for.

    Has no method that creates a directory, removes a file or publishes.
    Thread-safe.  Entry payloads are loaded lazily and memoized, so
    replaying a large corpus reads each trace file exactly once.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._lock = threading.RLock()
        self._index: Dict[str, Dict[str, Any]] = {}
        self._loaded: Dict[str, CorpusEntry] = {}
        self._open()

    def _open(self) -> None:
        self._index = read_corpus_index(self.path)

    @staticmethod
    def is_corpus(path: str) -> bool:
        """Whether ``path`` already holds a corpus (has an index.json)."""
        return os.path.exists(os.path.join(str(path), "index.json"))

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

    def get(self, fingerprint: str) -> CorpusEntry:
        """The entry stored under ``fingerprint`` (``KeyError`` when there is
        no readable entry file for it), read once and memoized."""
        with self._lock:
            entry = self._loaded.get(fingerprint)
            if entry is None:
                try:
                    entry = CorpusEntry.from_dict(read_corpus_entry(self.path, fingerprint))
                except (KeyError, TypeError, ValueError):  # TypeError: no file (None)
                    raise KeyError(fingerprint) from None
                self._loaded[fingerprint] = entry
            return entry

    def entries(self) -> Iterator[CorpusEntry]:
        """Every entry, in fingerprint order."""
        for fingerprint in self.fingerprints():
            yield self.get(fingerprint)

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
    """The corpus writer: fingerprint-deduped and write-through.

    Opening one claims the directory (the single-writer assumption the
    write-through design makes): it creates ``entries/``, sweeps orphan temp
    files and publishes an empty index when there is none.
    """

    def _open(self) -> None:
        self._entries_dir = os.path.join(self.path, "entries")
        self._index_path = os.path.join(self.path, "index.json")
        # Refuse, before touching anything, an index this version cannot
        # use: the first publish would replace it with what we failed to read.
        rows = _index_rows(self.path)
        if rows is None and os.path.exists(self._index_path):
            raise ValueError(
                f"corpus at {self.path} has an index.json that is torn or not "
                f"schema {CORPUS_SCHEMA}; refusing to open it for writing"
            )
        os.makedirs(self._entries_dir, exist_ok=True)
        self._sweep_orphan_tmp_files()
        #: fingerprint -> that row's line of index.json, encoded when the row
        #: was last replaced, so publishing the index never re-encodes rows
        #: that did not change.
        self._index_lines: Dict[str, str] = {}
        for fingerprint, row in (rows or {}).items():
            self._set_row(fingerprint, row)
        if rows is None:
            self._write_index()

    def _sweep_orphan_tmp_files(self) -> None:
        """Remove ``*.tmp`` droppings left by interrupted atomic writes.

        :func:`repro.storage.publish` guarantees the *target* file survives a
        crash, but dying between the temp-file write and the rename orphans
        the ``<name>.tmp`` next to it; sweeping on load keeps killed
        campaigns from accumulating them.  Only this process may write to a
        corpus it has opened (the single-writer assumption the whole
        write-through design already makes).
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

        A duplicate bumps the existing entry's ``rediscoveries`` counter and,
        when the new find scored strictly higher, upgrades the recorded score
        and best-discovery provenance (``origin`` always keeps recording where
        the trace *first* came from).  Re-registering a builtin attack or a
        triage-minimized variant is a no-op — both bootstraps are idempotent,
        so ``rediscoveries`` only ever counts genuine re-finds by a search.
        """
        fingerprint = trace.fingerprint()
        entry = CorpusEntry(
            trace=trace.copy(),
            fingerprint=fingerprint,
            mode=trace.mode,
            scenario_id=scenario_id,
            cca=cca,
            objective=objective,
            score=score,
            generation_found=generation_found,
            origin=origin,
            campaign=campaign,
            condition=dict(condition or {}),
            derived_from=derived_from,
            triage=dict(triage or {}),
            behavior=dict(behavior or {}),
        )
        with self._lock:
            existing = self._index.get(fingerprint)
            if existing is None:
                self._loaded[fingerprint] = entry
                self._commit(entry)
                return True
            if origin in ("builtin", "triage"):
                return False
            old = self.get(fingerprint)
            old.rediscoveries += 1
            # Scores from different objectives (and different network
            # conditions) live on incomparable scales, so the best-discovery
            # provenance is only upgraded by a like-for-like rediscovery.
            comparable = (
                old.score is None
                or (old.objective == objective and old.condition == dict(condition or {}))
            )
            if score is not None and comparable and (old.score is None or score > old.score):
                old.score = score
                old.scenario_id = scenario_id
                old.cca = cca
                old.objective = objective
                old.generation_found = generation_found
                old.campaign = campaign
                old.condition = dict(condition or {})
                if behavior:
                    old.behavior = dict(behavior)
            elif behavior and not old.behavior:
                # A rediscovery may bring the first behavior annotation for an
                # entry that predates the coverage subsystem.
                old.behavior = dict(behavior)
            self._commit(old)
            return False

    def annotate_triage(self, fingerprint: str, payload: Dict[str, Any]) -> None:
        """Attach triage metadata to an existing entry and persist it.

        The verdict is *replaced*, not merged: it describes one triage run,
        and keeping keys from an earlier run (e.g. a classification computed
        before a forced re-triage with different settings) would present two
        inconsistent runs as one result.  A non-empty ``triage`` dict is
        also what marks an entry as already triaged, making corpus triage
        idempotent across runs.
        """
        with self._lock:
            entry = self.get(fingerprint)
            entry.triage = dict(payload)
            self._commit(entry)

    def _commit(self, entry: CorpusEntry) -> None:
        """Publish ``entry``'s file, then the index whose row names it."""
        self._set_row(entry.fingerprint, entry.summary())
        publish(
            os.path.join(self._entries_dir, f"{entry.fingerprint}.json"),
            json.dumps(entry.to_dict()),
        )
        self._write_index()

    def _set_row(self, fingerprint: str, row: Dict[str, Any]) -> None:
        """Replace one index row and its encoded index.json line."""
        self._index[fingerprint] = row
        self._index_lines[fingerprint] = (
            f"  {json.dumps(fingerprint)}: {json.dumps(row, sort_keys=True)}"
        )
        get_registry().inc("corpus.index_rows_encoded")

    def _write_index(self) -> None:
        """Publish index.json: schema + one already-encoded row per line."""
        lines = ",\n".join(self._index_lines[fp] for fp in sorted(self._index_lines))
        entries = f"{{\n{lines}\n }}" if lines else "{}"
        publish(
            self._index_path, f'{{\n "entries": {entries},\n "schema": {CORPUS_SCHEMA}\n}}'
        )


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
