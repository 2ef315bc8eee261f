"""Campaign, corpus and replay reports (plain text + JSON).

Every ``repro-campaign run`` writes ``report.json`` next to the corpus, so a
corpus directory is self-describing: the spec that grew it, what each
scenario found and how the shared cache performed.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional

from ..analysis.reporting import format_campaign_summary, format_table
from ..storage import publish_json, read_json_object
from .corpus import CorpusReader
from .replay import ReplayReport
from .scheduler import CampaignResult

#: File name of the campaign report written into the corpus directory.
REPORT_FILENAME = "report.json"


def format_campaign_report(result: CampaignResult) -> str:
    """Human-readable end-of-campaign summary."""
    header = (
        f"campaign {result.spec.name!r}: {len(result.outcomes)} scenarios, "
        f"{sum(o.evaluations for o in result.outcomes)} simulations "
        f"(+{sum(o.cache_hits for o in result.outcomes)} cache hits) "
        f"in {result.wall_time_s:.1f}s"
    )
    body = header + "\n\n" + format_campaign_summary(
        result.summary_rows(), result.corpus_stats, result.cache_stats
    )
    if result.coverage:
        body += (
            f"\n\nbehavior coverage ({result.spec.guidance} guidance): "
            f"{result.coverage.get('cells', 0)} cells from "
            f"{result.coverage.get('observations', 0)} observations; "
            f"cells by cca: {result.coverage.get('by_cca', {})}"
        )
    return body


def format_corpus_report(corpus: CorpusReader, top: int = 10) -> str:
    """Corpus composition plus its highest-scoring entries."""
    stats = corpus.stats()
    lines = [
        f"corpus at {stats['path']}: {stats['entries']} entries",
        f"  by mode:   {stats['by_mode']}",
        f"  by origin: {stats['by_origin']}",
        f"  by cca:    {stats['by_cca']}",
        f"  behavior:  {stats.get('behavior_annotated', 0)} annotated entries "
        f"across {stats.get('behavior_cells', 0)} cells",
    ]
    # Ranked on the index alone (no trace files read); scores only compare
    # within one objective, so take the top N *per objective* — a global
    # slice would let the alphabetically-first objective crowd out the rest.
    scored = sorted(
        (
            (fingerprint, row)
            for fingerprint, row in corpus.index_rows().items()
            if row["score"] is not None
        ),
        key=lambda item: (item[1]["objective"], -item[1]["score"], item[0]),
    )
    rows = []
    kept_per_objective: Dict[str, int] = {}
    for fingerprint, row in scored:
        kept = kept_per_objective.get(row["objective"], 0)
        if kept >= top:
            continue
        kept_per_objective[row["objective"]] = kept + 1
        rows.append(
            {
                "fingerprint": fingerprint[:12],
                "scenario": row["scenario_id"],
                "cca": row["cca"],
                "objective": row["objective"],
                "score": row["score"],
                "packets": row["packets"],
                "generation": row["generation_found"],
                "rediscoveries": row["rediscoveries"],
            }
        )
    if rows:
        lines += ["", f"top {top} scored entries per objective:", format_table(rows)]
    return "\n".join(lines)


def format_replay_report(report: ReplayReport) -> str:
    """Per-entry replay table plus the aggregate verdict."""
    if not report.rows:
        return f"replay against {report.replay_cca}: corpus is empty"
    display_rows = []
    for row in report.rows:
        payload = row.as_dict()
        payload["fingerprint"] = payload["fingerprint"][:12]
        display_rows.append(payload)
    table = format_table(display_rows)
    worst = "; ".join(
        f"worst {objective} attack: {row.scenario_id} (score {row.replay_score:.4f})"
        for objective, row in sorted(report.best_by_objective().items())
    )
    footer = (
        f"replayed {report.entry_count} entries against {report.replay_cca}: "
        f"{len(report.regressions())} score higher than at discovery; {worst}"
    )
    return table + "\n\n" + footer


def write_campaign_report(result: CampaignResult, corpus_dir: str) -> str:
    """Persist the machine-readable campaign report; returns its path."""
    path = os.path.join(corpus_dir, REPORT_FILENAME)
    publish_json(path, result.to_dict())
    return path


def read_campaign_report(corpus_dir: str) -> Optional[Dict[str, Any]]:
    """The last campaign report stored with a corpus (``None`` if absent or torn)."""
    return read_json_object(os.path.join(corpus_dir, REPORT_FILENAME))
