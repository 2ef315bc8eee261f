"""Regression replay: re-score the whole corpus against one CCA.

Replay is what turns the corpus into a growing adversarial benchmark suite:
after any change — a new CCA variant, a patched algorithm, a different
bottleneck — re-simulating every stored trace shows exactly which known
attacks got better or worse.  The simulator is deterministic, so replaying
the same corpus against the same CCA always produces identical scores.

Each entry replays under the network condition recorded in its provenance
(falling back to simulator defaults for entries without one, e.g. imported
traces), scored with the objective it was discovered under, so the delta
column compares like with like: *this trace, this scenario, other CCA*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..exec.backend import EvaluationBackend
from ..exec.batch import Evaluator
from ..scoring.objectives import DEFAULT_OBJECTIVE
from .corpus import CorpusReader


@dataclass
class ReplayRow:
    """One corpus entry's replay outcome."""

    fingerprint: str
    scenario_id: str
    origin_cca: str
    objective: str
    original_score: Optional[float]
    replay_score: float
    summary: Dict[str, Any]

    @property
    def delta(self) -> Optional[float]:
        """Replay minus original (positive = the attack bites harder now)."""
        if self.original_score is None:
            return None
        return self.replay_score - self.original_score

    def as_dict(self) -> Dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "scenario": self.scenario_id,
            "origin_cca": self.origin_cca or "-",
            "objective": self.objective,
            "original": self.original_score,
            "replay": self.replay_score,
            "delta": self.delta,
            "throughput_mbps": self.summary.get("throughput_mbps", "n/a"),
        }


@dataclass
class ReplayReport:
    """Replay of a whole corpus against one CCA."""

    replay_cca: str
    rows: List[ReplayRow]

    @property
    def entry_count(self) -> int:
        return len(self.rows)

    def best_by_objective(self) -> Dict[str, ReplayRow]:
        """The entry hurting the replayed CCA most, per objective.

        Scores from different objectives live on incomparable scales (negated
        Mbps vs. delay seconds), so there is no single cross-objective "worst
        attack" — only a worst per objective.
        """
        best: Dict[str, ReplayRow] = {}
        for row in self.rows:
            current = best.get(row.objective)
            if current is None or row.replay_score > current.replay_score:
                best[row.objective] = row
        return best

    def regressions(self) -> List[ReplayRow]:
        """Entries scoring higher on replay than at discovery (worse CCA)."""
        return [row for row in self.rows if row.delta is not None and row.delta > 0.0]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "replay_cca": self.replay_cca,
            "entries": self.entry_count,
            "regressions": len(self.regressions()),
            "best_by_objective": {
                objective: {"fingerprint": row.fingerprint, "score": row.replay_score}
                for objective, row in sorted(self.best_by_objective().items())
            },
            "rows": [row.as_dict() for row in self.rows],
        }


def replay_corpus(
    corpus: CorpusReader,
    cca: str,
    *,
    backend: Optional[EvaluationBackend] = None,
    mode: Optional[str] = None,
) -> ReplayReport:
    """Re-simulate every corpus entry against ``cca`` and report score deltas.

    ``mode`` restricts the replay to one fuzzing mode ("link", "traffic" or
    "loss").  The batch goes through the usual evaluation backend, so a
    process pool parallelises large-corpus replays just like a fuzzing run.
    """
    # Mode-filter on the index so non-matching entries' trace files are
    # never read; fingerprint order keeps the report deterministic.
    entries = [
        corpus.get(fingerprint)
        for fingerprint, row in sorted(corpus.index_rows().items())
        if mode is None or row["mode"] == mode
    ]
    outcomes = Evaluator(backend).evaluate([entry.evaluation_job(cca) for entry in entries])
    rows = [
        ReplayRow(
            fingerprint=entry.fingerprint,
            scenario_id=entry.scenario_id,
            origin_cca=entry.cca,
            objective=entry.objective or DEFAULT_OBJECTIVE,
            original_score=entry.score,
            replay_score=score.total,
            summary=dict(summary),
        )
        for entry, (score, summary) in zip(entries, outcomes)
    ]
    return ReplayReport(replay_cca=cca, rows=rows)
