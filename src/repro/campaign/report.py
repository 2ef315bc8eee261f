"""Campaign, corpus and replay reports (plain text).

A finished campaign is recorded once, in the corpus's journal: the spec at
``campaign_start`` and each scenario's outcome at ``scenario_complete``.
:func:`format_last_campaign` reads that record back, so ``repro-campaign
report`` describes the last campaign whether it ran with telemetry or not,
was compacted since, or was killed before it finished (``(unfinished)``).
Its seconds are the sum of the scenarios' own wall times: the journal keeps
no campaign wall time.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..analysis.reporting import format_campaign_summary, format_table
from ..journal.view import JournalView
from .corpus import CorpusReader
from .replay import ReplayReport
from .scheduler import CampaignResult, journaled_outcomes
from .spec import CampaignSpec


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


def format_corpus_report(corpus: CorpusReader, top: int) -> str:
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


def format_last_campaign(view: JournalView) -> Optional[str]:
    """One line on the campaign a corpus journal records, ``None`` when the
    journal holds none it can read.

    The journal keeps no campaign wall time, so the seconds are the sum of
    the completed scenarios' own.
    """
    try:
        spec = CampaignSpec.from_journal(view.campaign["spec"])
        outcomes = journaled_outcomes(spec, view).values()
    except (KeyError, TypeError, ValueError):
        return None
    unfinished = "" if len(outcomes) == spec.scenario_count else " (unfinished)"
    return (
        f"last campaign: {spec.name!r} — {len(outcomes)}/{spec.scenario_count} "
        f"scenarios complete{unfinished}, "
        f"{sum(o.evaluations for o in outcomes)} simulations "
        f"(+{sum(o.cache_hits for o in outcomes)} cache hits), "
        f"{sum(o.wall_time_s for o in outcomes):.1f}s"
    )
