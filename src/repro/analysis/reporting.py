"""Plain-text reporting helpers.

The paper's figures are reproduced as data series; these helpers render them
as ASCII tables and line charts so examples and benchmarks can show the
"shape" of each figure directly in a terminal, without plotting dependencies.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple


def format_table(rows: Sequence[Dict[str, object]], columns: Optional[Sequence[str]] = None) -> str:
    """Render a list of dictionaries as an aligned ASCII table."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered_rows = [[_format_cell(row.get(col)) for col in columns] for row in rows]
    widths = [
        max(len(str(col)), max(len(cells[i]) for cells in rendered_rows))
        for i, col in enumerate(columns)
    ]
    header = " | ".join(str(col).ljust(widths[i]) for i, col in enumerate(columns))
    separator = "-+-".join("-" * w for w in widths)
    body = [
        " | ".join(cells[i].ljust(widths[i]) for i in range(len(columns)))
        for cells in rendered_rows
    ]
    return "\n".join([header, separator] + body)


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def ascii_chart(
    series: Sequence[Tuple[float, float]],
    width: int = 70,
    height: int = 12,
    title: str = "",
    y_label: str = "",
) -> str:
    """Render an (x, y) series as a rough ASCII line chart."""
    if not series:
        return f"{title}\n(no data)"
    xs = [x for x, _ in series]
    ys = [y for _, y in series]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0

    grid = [[" "] * width for _ in range(height)]
    for x, y in series:
        col = int((x - x_min) / (x_max - x_min) * (width - 1))
        row = int((y - y_min) / (y_max - y_min) * (height - 1))
        grid[height - 1 - row][col] = "*"

    lines: List[str] = []
    if title:
        lines.append(title)
    for i, row_cells in enumerate(grid):
        if i == 0:
            label = f"{y_max:9.2f} |"
        elif i == height - 1:
            label = f"{y_min:9.2f} |"
        else:
            label = " " * 9 + " |"
        lines.append(label + "".join(row_cells))
    lines.append(" " * 10 + "+" + "-" * width)
    lines.append(" " * 10 + f" {x_min:.2f}" + " " * max(1, width - 16) + f"{x_max:.2f}")
    if y_label:
        lines.append(f"(y: {y_label})")
    return "\n".join(lines)


def format_campaign_summary(
    scenario_rows: Sequence[Dict[str, object]],
    corpus_stats: Optional[Dict[str, object]] = None,
    cache_stats: Optional[Dict[str, object]] = None,
) -> str:
    """Campaign summary: per-scenario table plus corpus/cache one-liners."""
    sections: List[str] = [format_table(scenario_rows)]
    if corpus_stats:
        sections.append(
            f"corpus: {corpus_stats.get('entries', 0)} entries "
            f"(by mode: {corpus_stats.get('by_mode', {})}, "
            f"by origin: {corpus_stats.get('by_origin', {})})"
        )
    if cache_stats:
        sections.append(
            f"shared cache: {cache_stats.get('entries', 0)} entries, "
            f"{cache_stats.get('hits', 0)} hits / {cache_stats.get('misses', 0)} misses "
            f"/ {cache_stats.get('evictions', 0)} evictions "
            f"(hit rate {float(cache_stats.get('hit_rate', 0.0)):.1%})"
        )
    return "\n\n".join(sections)


def format_triage_report(report: Dict[str, object]) -> str:
    """Human-readable triage verdict (takes ``TriageReport.to_dict()``).

    Renders the three engine sections that are present and skips the ones
    the pipeline was run without.
    """
    header = (
        f"triage of {str(report.get('fingerprint', ''))[:12]} "
        f"({report.get('mode', '?')} trace, cca={report.get('cca', '?')}, "
        f"objective={report.get('objective', '?')}): "
        f"baseline score {float(report.get('baseline_score', 0.0)):.4f}"
    )
    sections: List[str] = [header]

    minimization = report.get("minimization")
    if isinstance(minimization, dict):
        sections.append(
            "minimization: "
            f"{minimization['events_before']} -> {minimization['events_after']} events "
            f"(score {float(minimization['minimized_score']):.4f}, "
            f"retained {float(minimization['achieved_retention']):.1%} "
            f">= bound {float(minimization['retention_bound']):.0%}, "
            f"{minimization['evaluations']} evaluations)"
        )

    robustness = report.get("robustness")
    if isinstance(robustness, dict):
        rows = [
            {
                "dimension": dimension,
                "held": f"{stats['held']}/{stats['total']}",
                "worst_cell": stats["worst_label"],
                "worst_retention": stats["worst_retention"],
            }
            for dimension, stats in robustness["by_dimension"].items()
        ]
        sections.append(
            f"robustness: {float(robustness['robustness_score']):.1%} of the "
            f"perturbation matrix held (retention bound "
            f"{float(robustness['retention_bound']):.0%})\n" + format_table(rows)
        )

    differential = report.get("differential")
    if isinstance(differential, dict):
        sections.append(
            f"differential: {differential['classification']} "
            f"(most vulnerable: {differential['most_vulnerable']})\n"
            + format_table(differential["rows"])
        )
    return "\n\n".join(sections)


def format_coverage_map(archive, top: int = 10) -> str:
    """ASCII behavior-coverage map of a :class:`~repro.coverage.BehaviorArchive`.

    Per CCA, renders the goodput x stall-class occupancy plane (each cell of
    the plane aggregates the loss/RTO/recovery descriptor axes behind it)
    followed by the highest-scoring elites.  The full cell keys remain
    available via ``repro-coverage map --json``.
    """
    shaped = shape_coverage(archive.to_dict()["cells"], top=top)
    if not shaped["cells"]:
        return "behavior archive is empty (no cells observed)"
    counters = archive.counters()
    lines: List[str] = [
        f"behavior coverage: {shaped['cells']} cells from "
        f"{counters['observations']} observations "
        f"({counters['improvements']} elite improvements)",
        f"  cells by cca:   {shaped['by_cca']}",
        f"  cells by stall: {shaped['by_stall']}",
    ]

    for cca, plane in shaped["heatmap"].items():
        lines.append("")
        lines.append(f"{cca} — rows: goodput bucket (g0 starved .. {plane['rows'][-1]} full); "
                     "cols: stall class; cell: distinct behavior cells")
        header = "      " + "".join(f"{name:>8}" for name in plane["cols"])
        lines.append(header)
        for label, counts in reversed(list(zip(plane["rows"], plane["counts"]))):
            row = [f"  {label:<4}"]
            for count in counts:
                row.append(f"{count if count else '.':>8}")
            lines.append("".join(row))

    if shaped["top"]:
        rows = [
            {
                "cell": elite["cell"],
                "score": elite["score"],
                "visits": elite["visits"],
                "improvements": elite["improvements"],
                "trace": elite["trace_fingerprint"][:12],
            }
            for elite in shaped["top"]
        ]
        lines += ["", f"top {len(rows)} elite cells by score:", format_table(rows)]
    return "\n".join(lines)


def format_coverage_gaps(archive) -> str:
    """Unfilled regions of the descriptor space (for ``repro-coverage gaps``).

    The full descriptor grid is large by design, so the report shows per-axis
    marginal coverage plus the empty cells of the goodput x stall plane —
    the plane a fuzzing engineer can actually steer toward.
    """
    shaped = shape_coverage(archive.to_dict()["cells"])
    if not shaped["cells"]:
        return "behavior archive is empty (no cells observed)"
    lines: List[str] = []
    for cca, gaps in shaped["gaps"].items():
        missing_plane = gaps["empty_plane_cells"]
        lines.append(
            f"{cca}: goodput {gaps['goodput_buckets_seen']}/{gaps['goodput_buckets_total']} buckets, "
            f"stall {gaps['stall_classes_seen']}/{gaps['stall_classes_total']} classes, "
            f"loss {gaps['loss_buckets_seen']}/{gaps['loss_buckets_total']} buckets, "
            f"rto {gaps['rto_buckets_seen']}/{gaps['rto_buckets_total']} buckets"
        )
        lines.append(
            f"  empty goodput x stall cells ({len(missing_plane)}): "
            + (", ".join(missing_plane[:20]) + (" ..." if len(missing_plane) > 20 else ""))
        )
    return "\n".join(lines)


def shape_coverage(cell_payloads: Dict[str, Dict[str, Any]], top: int = 20) -> Dict[str, Any]:
    """JSON-able heatmap + gap analysis from serialized cell payloads.

    The payloads are :meth:`~repro.coverage.archive.CellElite.to_dict`
    dicts — the shape both ``behavior_map.json`` and journal
    ``behavior_delta`` records carry — so one shaping function serves the
    on-disk map, the live journal overlay, and any merge of the two —
    :func:`format_coverage_map`/:func:`format_coverage_gaps` are its text
    renderers.  Per CCA, the goodput x stall occupancy plane (rows goodput
    bucket 0..N, columns the stall classes) plus the empty plane cells, and
    the ``top`` highest-scoring elites overall.
    """
    from ..coverage.signature import (
        COUNT_BUCKET_MAX,
        GOODPUT_BUCKETS,
        STALL_CLASSES,
    )

    by_cca: Dict[str, List[Dict[str, Any]]] = {}
    for cell in sorted(cell_payloads):
        payload = cell_payloads[cell]
        signature = payload.get("signature") or {}
        if not isinstance(signature, dict):
            continue
        by_cca.setdefault(str(signature.get("cca", "")), []).append(payload)

    heatmap: Dict[str, Any] = {}
    gaps: Dict[str, Any] = {}
    by_stall: Dict[str, int] = {}
    for cca, payloads in sorted(by_cca.items()):
        plane: Dict[Tuple[int, str], int] = {}
        goodput_seen: set = set()
        stall_seen: set = set()
        loss_seen: set = set()
        rto_seen: set = set()
        for payload in payloads:
            signature = payload.get("signature") or {}
            try:
                bucket = int(signature.get("goodput_bucket", 0))
            except (TypeError, ValueError):
                bucket = 0
            stall = str(signature.get("stall_class", ""))
            plane[(bucket, stall)] = plane.get((bucket, stall), 0) + 1
            goodput_seen.add(bucket)
            stall_seen.add(stall)
            loss_seen.add(signature.get("loss_bucket"))
            rto_seen.add(signature.get("rto_bucket"))
            by_stall[stall] = by_stall.get(stall, 0) + 1
        heatmap[cca] = {
            "rows": [f"g{bucket}" for bucket in range(GOODPUT_BUCKETS + 1)],
            "cols": list(STALL_CLASSES),
            "counts": [
                [plane.get((bucket, name), 0) for name in STALL_CLASSES]
                for bucket in range(GOODPUT_BUCKETS + 1)
            ],
        }
        empty = [
            f"g{bucket}/{name}"
            for bucket in range(GOODPUT_BUCKETS + 1)
            for name in STALL_CLASSES
            if (bucket, name) not in plane
        ]
        gaps[cca] = {
            "goodput_buckets_seen": len(goodput_seen),
            "goodput_buckets_total": GOODPUT_BUCKETS + 1,
            "stall_classes_seen": len(stall_seen),
            "stall_classes_total": len(STALL_CLASSES),
            "loss_buckets_seen": len(loss_seen),
            "loss_buckets_total": COUNT_BUCKET_MAX + 1,
            "rto_buckets_seen": len(rto_seen),
            "rto_buckets_total": COUNT_BUCKET_MAX + 1,
            "empty_plane_cells": empty,
        }

    scored = [
        payload
        for payload in cell_payloads.values()
        if payload.get("score") is not None
    ]
    scored.sort(key=lambda p: (-float(p["score"]), str(p.get("cell", ""))))
    elites = [
        {
            "cell": payload.get("cell", ""),
            "score": payload.get("score"),
            "visits": payload.get("visits", 0),
            "improvements": payload.get("improvements", 0),
            "trace_fingerprint": payload.get("trace_fingerprint", ""),
        }
        for payload in scored[:top]
    ]
    return {
        "cells": len(cell_payloads),
        "by_cca": {cca: len(payloads) for cca, payloads in sorted(by_cca.items())},
        "by_stall": dict(sorted(by_stall.items())),
        "heatmap": heatmap,
        "gaps": gaps,
        "top": elites,
    }


def shape_rankings(
    outcome_rows: Sequence[Dict[str, Any]],
    index_rows: Dict[str, Dict[str, Any]],
    quarantine_entries: Sequence[Dict[str, Any]] = (),
    triage_rows: Optional[Sequence[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Per-CCA vulnerability table from scenario outcomes + corpus evidence.

    ``outcome_rows`` come from :meth:`~repro.journal.view.JournalView.outcome_rows`,
    ``index_rows`` from the corpus index, ``quarantine_entries`` from the
    corpus's quarantine (each counted under the CCA of its ``scenario_id``,
    not its ``cca``, which is the CCA's identity hash), ``triage_rows`` are
    differential-triage verdicts (``{"fingerprint", "classification",
    "most_vulnerable", "vulnerable_ccas"}``).  A CCA's headline number is
    the worst (highest) best-fitness any completed scenario reached against
    it — fitness measures attack damage, so higher means more vulnerable —
    alongside how much corpus evidence backs that up.
    """
    per_cca: Dict[str, Dict[str, Any]] = {}

    def row_for(cca: str) -> Dict[str, Any]:
        return per_cca.setdefault(
            cca,
            {
                "cca": cca,
                "scenarios_completed": 0,
                "worst_fitness": None,
                "mean_best_fitness": None,
                "evaluations": 0,
                "corpus_entries": 0,
                "behavior_cells": 0,
                "quarantined": 0,
                "triage_most_vulnerable": 0,
                "triage_vulnerable": 0,
            },
        )

    fitness_sums: Dict[str, List[float]] = {}
    for outcome in outcome_rows:
        cca = str(outcome.get("cca") or "")
        row = row_for(cca)
        row["scenarios_completed"] += 1
        row["evaluations"] += int(outcome.get("evaluations") or 0)
        row["behavior_cells"] += int(outcome.get("behavior_cells") or 0)
        fitness = outcome.get("best_fitness")
        if isinstance(fitness, (int, float)):
            fitness_sums.setdefault(cca, []).append(float(fitness))
            if row["worst_fitness"] is None or fitness > row["worst_fitness"]:
                row["worst_fitness"] = float(fitness)
    for cca, values in fitness_sums.items():
        per_cca[cca]["mean_best_fitness"] = sum(values) / len(values)

    for summary in index_rows.values():
        cca = str(summary.get("cca") or "")
        if cca:
            row_for(cca)["corpus_entries"] += 1

    for entry in quarantine_entries:
        cca = str(entry.get("scenario_id") or "").split("/")[0]
        if cca:
            row_for(cca)["quarantined"] += 1

    classifications: Dict[str, int] = {}
    for verdict in triage_rows or []:
        classification = str(verdict.get("classification") or "")
        if classification:
            classifications[classification] = classifications.get(classification, 0) + 1
        most = str(verdict.get("most_vulnerable") or "")
        if most:
            row_for(most)["triage_most_vulnerable"] += 1
        for cca in verdict.get("vulnerable_ccas") or []:
            row_for(str(cca))["triage_vulnerable"] += 1

    rows = sorted(
        per_cca.values(),
        key=lambda row: (
            -(row["worst_fitness"] if row["worst_fitness"] is not None else float("-inf")),
            row["cca"],
        ),
    )
    return {
        "rows": rows,
        "scenarios_completed": sum(r["scenarios_completed"] for r in rows),
        "triage_classes": dict(sorted(classifications.items())),
    }

