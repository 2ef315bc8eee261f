"""MAP-Elites behavior archive: one elite attack per behavior cell.

The archive maps :meth:`BehaviorSignature.cell_key` cells to the best trace
seen in that cell (the *elite*), plus occupancy statistics that the novelty
guidance turns into search signal:

* ``visits`` — how many evaluations landed in the cell (rarity = scarce
  visits), and
* ``improvements`` — how often the cell's elite was displaced.

Invariants (property-tested):

* a cell's elite score is monotone non-decreasing,
* observing the same outcome twice never changes the elite (idempotent
  modulo the visit counter),
* ``save``/``load`` round-trips the archive exactly, and
* :meth:`BehaviorArchive.delta_since` returns exactly the cells touched
  since the reader's mark, which under ``observe`` and ``merge`` are the
  cells whose serialized payload changed.

The archive is always lock-protected: a campaign touches it from one thread,
but it is public and a host program may read coverage while a search runs,
and the lock costs nothing next to a simulation.  Scores from
different objectives live on incomparable scales, so an elite is only
displaced by a better score from the *same* objective (mirroring the corpus
rediscovery rule); :meth:`CellElite.comparable` is that rule, for
``observe``, ``merge`` and :func:`diff_archives` alike.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..obs.metrics import get_registry
from ..storage import publish_json, read_json_object
from ..traces.trace import PacketTrace
from .signature import SIGNATURE_SCHEMA, BehaviorSignature

#: behavior_map.json schema version, bumped on incompatible layout changes.
ARCHIVE_SCHEMA = 1

#: File name the archive is serialized under inside a corpus directory.
ARCHIVE_FILENAME = "behavior_map.json"


@dataclass
class CellElite:
    """The best-scoring occupant of one behavior cell."""

    cell: str
    signature: BehaviorSignature
    score: Optional[float]                 #: elite fitness (None for unscored imports)
    trace_fingerprint: str
    trace: Optional[PacketTrace]           #: the elite's trace (for reseeding)
    provenance: Dict[str, Any]
    visits: int = 1
    improvements: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cell": self.cell,
            "signature": self.signature.to_dict(),
            "score": self.score,
            "trace_fingerprint": self.trace_fingerprint,
            "trace": self.trace.to_dict() if self.trace is not None else None,
            "provenance": dict(self.provenance),
            "visits": self.visits,
            "improvements": self.improvements,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CellElite":
        trace_payload = payload.get("trace")
        return cls(
            cell=payload["cell"],
            signature=BehaviorSignature.from_dict(payload["signature"]),
            score=payload.get("score"),
            trace_fingerprint=payload.get("trace_fingerprint", ""),
            trace=PacketTrace.from_dict(trace_payload) if trace_payload else None,
            provenance=dict(payload.get("provenance", {})),
            visits=int(payload.get("visits", 1)),
            improvements=int(payload.get("improvements", 0)),
        )

    def comparable(self, provenance: Dict[str, Any]) -> bool:
        """Whether a score recorded with ``provenance`` compares with this
        elite's: iff both name the same objective.  Every producer records
        the score function's fingerprint there, so "same objective" means
        the same scoring configuration, not merely the same name."""
        return self.provenance.get("objective") == provenance.get("objective")

    def displaced_by(self, score: Optional[float], provenance: Dict[str, Any]) -> bool:
        """Whether an outcome scoring ``score`` takes this cell: a strictly
        higher comparable score, or any score over an unscored elite."""
        if score is None:
            return False
        return self.score is None or (self.comparable(provenance) and score > self.score)


class BehaviorArchive:
    """Thread-safe MAP-Elites archive of behavior cells."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._cells: Dict[str, CellElite] = {}
        #: cell -> stamp of the touch that last changed its payload, kept in
        #: touch order (oldest first) so :meth:`delta_since` walks back from
        #: the newest touch and stops at the mark.
        self._stamps: Dict[str, int] = {}
        self._clock = 0
        self.observations = 0              #: total outcomes observed
        self.new_cells = 0                 #: observations that opened a cell
        self.improvements = 0              #: observations that displaced an elite

    # ------------------------------------------------------------------ #
    # Insertion
    # ------------------------------------------------------------------ #

    def _touch(self, cell: str) -> None:
        """Stamp ``cell`` as changed now (caller holds the lock)."""
        self._clock += 1
        self._stamps.pop(cell, None)
        self._stamps[cell] = self._clock

    def observe(
        self,
        signature: BehaviorSignature,
        score: Optional[float],
        trace_fingerprint: str,
        trace: Optional[PacketTrace] = None,
        provenance: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Record one evaluated outcome; returns "new", "improved" or "visit".

        A cell's elite is displaced only as :meth:`CellElite.displaced_by`
        says — scores across objectives are incomparable, so a
        cross-objective outcome only counts as a visit.
        """
        cell = signature.cell_key()
        provenance = dict(provenance or {})
        with self._lock:
            self.observations += 1
            self._touch(cell)              # every outcome moves at least ``visits``
            elite = self._cells.get(cell)
            if elite is None:
                self._cells[cell] = CellElite(
                    cell=cell,
                    signature=signature,
                    score=score,
                    trace_fingerprint=trace_fingerprint,
                    trace=trace.copy() if trace is not None else None,
                    provenance=provenance,
                )
                self.new_cells += 1
                return "new"
            elite.visits += 1
            if elite.displaced_by(score, provenance):
                elite.signature = signature
                elite.score = score
                elite.trace_fingerprint = trace_fingerprint
                elite.trace = trace.copy() if trace is not None else None
                elite.provenance = provenance
                elite.improvements += 1
                self.improvements += 1
                return "improved"
            return "visit"

    def snapshot(self) -> "BehaviorArchive":
        """Deterministic deep copy (for per-scenario archives in campaigns)."""
        return BehaviorArchive.from_dict(self.to_dict())

    def merge(self, other: "BehaviorArchive", baseline: Optional["BehaviorArchive"] = None) -> int:
        """Fold another archive in; returns the number of cells that changed.

        Unlike re-observing each elite, merging preserves the occupancy
        statistics: per-cell visits and improvements are summed (they drive
        ``rarity()`` and ``least_visited()``), and the archive-level
        observation counters aggregate, so a map assembled from per-scenario
        archives reports the same coverage a shared archive would.

        ``baseline`` handles archives that were *seeded from a snapshot of
        this archive* (a fleet worker's per-scenario archive): only ``other``'s
        contribution beyond the baseline is folded in, so the inherited
        cells' visits are not double-counted once per scenario.
        """
        changed = 0
        base_cells: Dict[str, CellElite] = (
            {elite.cell: elite for elite in baseline.cells()} if baseline is not None else {}
        )
        for elite in other.cells():
            base = base_cells.get(elite.cell)
            delta_visits = elite.visits - (base.visits if base is not None else 0)
            delta_improvements = elite.improvements - (base.improvements if base is not None else 0)
            elite_changed = base is None or (
                elite.score != base.score or elite.trace_fingerprint != base.trace_fingerprint
            )
            if delta_visits == 0 and delta_improvements == 0 and not elite_changed:
                continue                   # cell untouched beyond the baseline
            with self._lock:
                mine = self._cells.get(elite.cell)
                if mine is None:
                    # Cells absent here are also absent from the baseline
                    # (the baseline is a snapshot of this archive), so the
                    # deltas equal the full counters.
                    self._cells[elite.cell] = CellElite(
                        cell=elite.cell,
                        signature=elite.signature,
                        score=elite.score,
                        trace_fingerprint=elite.trace_fingerprint,
                        trace=elite.trace.copy() if elite.trace is not None else None,
                        provenance=dict(elite.provenance),
                        visits=delta_visits,
                        improvements=delta_improvements,
                    )
                    self._touch(elite.cell)
                    self.new_cells += 1
                    changed += 1
                    continue
                mine.visits += delta_visits
                mine.improvements += delta_improvements
                displaced = elite_changed and mine.displaced_by(elite.score, elite.provenance)
                if displaced:
                    mine.signature = elite.signature
                    mine.score = elite.score
                    mine.trace_fingerprint = elite.trace_fingerprint
                    mine.trace = elite.trace.copy() if elite.trace is not None else None
                    mine.provenance = dict(elite.provenance)
                    mine.improvements += 1
                    self.improvements += 1
                    changed += 1
                if displaced or delta_visits or delta_improvements:
                    self._touch(elite.cell)
        with self._lock:
            self.observations += other.observations - (
                baseline.observations if baseline is not None else 0
            )
            self.improvements += other.improvements - (
                baseline.improvements if baseline is not None else 0
            )
        return changed

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        with self._lock:
            return len(self._cells)

    def __contains__(self, cell: str) -> bool:
        with self._lock:
            return cell in self._cells

    def cell_keys(self) -> List[str]:
        """All cell keys, sorted for deterministic iteration."""
        with self._lock:
            return sorted(self._cells)

    def get(self, cell: str) -> Optional[CellElite]:
        with self._lock:
            return self._cells.get(cell)

    def cells(self) -> List[CellElite]:
        """Every cell elite, in sorted cell order."""
        with self._lock:
            return [self._cells[cell] for cell in sorted(self._cells)]

    def visits(self, cell: str) -> int:
        with self._lock:
            elite = self._cells.get(cell)
            return elite.visits if elite is not None else 0

    def rarity(self, cell: str) -> float:
        """Rarity bonus in [0, 1]: 1 for an unseen cell, decaying with visits."""
        count = self.visits(cell)
        if count <= 0:
            return 1.0
        return 1.0 / math.sqrt(count)

    def least_visited(self, count: int) -> List[CellElite]:
        """The ``count`` least-occupied cells (deterministic tie-break)."""
        if count <= 0:
            return []
        with self._lock:
            ordered = sorted(self._cells.values(), key=lambda e: (e.visits, e.cell))
        return ordered[:count]

    def coverage(self) -> Dict[str, Any]:
        """Aggregate occupancy statistics (for reports and FuzzResult)."""
        with self._lock:
            elites = list(self._cells.values())
            observations = self.observations
            improvements = self.improvements
        by_cca: Dict[str, int] = {}
        by_stall: Dict[str, int] = {}
        for elite in elites:
            signature = elite.signature
            by_cca[signature.cca] = by_cca.get(signature.cca, 0) + 1
            by_stall[signature.stall_class] = by_stall.get(signature.stall_class, 0) + 1
        return {
            "cells": len(elites),
            "observations": observations,
            "improvements": improvements,
            "by_cca": dict(sorted(by_cca.items())),
            "by_stall": dict(sorted(by_stall.items())),
        }

    # ------------------------------------------------------------------ #
    # Journal deltas
    # ------------------------------------------------------------------ #

    @property
    def mark(self) -> int:
        """The stamp of the latest touch: ``delta_since(archive.mark)`` is empty."""
        with self._lock:
            return self._clock

    def delta_since(self, mark: int) -> Tuple[Dict[str, Dict[str, Any]], int]:
        """Cells touched after ``mark`` as ``(changed_payloads, new_mark)``.

        ``mark`` is the ``new_mark`` of a previous call or :attr:`mark` (use
        0 for "everything"); every consumer keeps its own.  Only the touched
        cells are serialised, so the cost of a call follows the work since
        the mark, not the size of the map — and a touched cell's payload has
        changed: ``observe`` always raises ``visits``, and ``merge`` stamps a
        cell only when it moves its counters or its elite.  The campaign
        journal records the changed payloads as a ``behavior_delta`` event,
        so replay reconstructs the archive without re-serialising the whole
        map every generation.
        """
        with self._lock:
            touched = []
            for cell, stamp in reversed(self._stamps.items()):
                if stamp <= mark:
                    break
                touched.append(cell)
            changed = {cell: self._cells[cell].to_dict() for cell in sorted(touched)}
            get_registry().inc("archive.delta_cells_serialised", len(changed))
            return changed, self._clock

    def apply_delta(
        self,
        cells: Dict[str, Dict[str, Any]],
        counters: Optional[Dict[str, int]] = None,
    ) -> None:
        """Overwrite cells (and optionally absolute counters) from a delta."""
        with self._lock:
            for cell, payload in cells.items():
                self._cells[cell] = CellElite.from_dict(payload)
                self._touch(cell)
            if counters is not None:
                self.observations = int(counters["observations"])
                self.new_cells = int(counters["new_cells"])
                self.improvements = int(counters["improvements"])

    def counters(self) -> Dict[str, int]:
        """Absolute archive-level counters (journal ``behavior_delta`` payload)."""
        with self._lock:
            return {
                "observations": self.observations,
                "new_cells": self.new_cells,
                "improvements": self.improvements,
            }

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "schema": ARCHIVE_SCHEMA,
                "signature_schema": SIGNATURE_SCHEMA,
                "observations": self.observations,
                "new_cells": self.new_cells,
                "improvements": self.improvements,
                "cells": {
                    cell: self._cells[cell].to_dict() for cell in sorted(self._cells)
                },
            }

    @classmethod
    def from_dict(cls, payload: Optional[Dict[str, Any]]) -> "BehaviorArchive":
        """Strict deserialization: an unusable payload raises ``ValueError``."""
        cells = _archive_cells(payload)
        if cells is None:
            raise ValueError(_UNUSABLE)
        archive = cls()
        archive.observations = int(payload.get("observations", 0))
        archive.new_cells = int(payload.get("new_cells", 0))
        archive.improvements = int(payload.get("improvements", 0))
        archive.apply_delta(cells)
        return archive

    def save(self, path: str) -> str:
        """Publish the archive as JSON; returns the path written."""
        publish_json(path, self.to_dict())
        return path

    @classmethod
    def load(cls, path: str) -> "BehaviorArchive":
        """The strict read: a missing, torn or mismatched file raises ``ValueError``."""
        return cls.from_dict(read_json_object(path))

    @staticmethod
    def corpus_path(corpus_dir: str) -> str:
        """Where the archive lives inside a campaign corpus directory."""
        return os.path.join(str(corpus_dir), ARCHIVE_FILENAME)


_UNUSABLE = (
    f"behavior archive is missing, torn, or not schema {ARCHIVE_SCHEMA} "
    f"with signature schema {SIGNATURE_SCHEMA}"
)


def _archive_cells(payload: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """The one schema check of an archive payload: its cells, or ``None``."""
    if (
        payload is None
        or payload.get("schema", ARCHIVE_SCHEMA) != ARCHIVE_SCHEMA
        or payload.get("signature_schema", SIGNATURE_SCHEMA) != SIGNATURE_SCHEMA
    ):
        return None
    cells = payload.get("cells", {})
    return cells if isinstance(cells, dict) else None


def read_archive_payload(path: str, strict: bool) -> Optional[Dict[str, Any]]:
    """The map stored at ``path``, unparsed and less any cell that is not an
    object, or ``None`` when it is missing, torn or of another schema
    (``strict`` raises ``ValueError`` for a file that exists but is unusable)."""
    payload = read_json_object(path)
    cells = _archive_cells(payload)
    if cells is None:
        if strict and os.path.exists(path):
            raise ValueError(_UNUSABLE)
        return None
    return dict(payload, cells={cell: p for cell, p in cells.items() if isinstance(p, dict)})


def diff_archives(a: BehaviorArchive, b: BehaviorArchive) -> Dict[str, Any]:
    """Cell-level comparison of two archives (for ``repro-coverage diff``)."""
    cells_a = set(a.cell_keys())
    cells_b = set(b.cell_keys())
    shared = sorted(cells_a & cells_b)
    score_deltas: List[Tuple[str, Optional[float]]] = []
    for cell in shared:
        elite_a, elite_b = a.get(cell), b.get(cell)
        if elite_a is None or elite_b is None:
            continue
        # Cross-objective (or unscored) elites get no delta.
        if (
            elite_a.score is None
            or elite_b.score is None
            or not elite_a.comparable(elite_b.provenance)
        ):
            score_deltas.append((cell, None))
        else:
            score_deltas.append((cell, elite_b.score - elite_a.score))
    return {
        "only_a": sorted(cells_a - cells_b),
        "only_b": sorted(cells_b - cells_a),
        "shared": shared,
        "score_deltas": score_deltas,
    }
