"""Analysis utilities: metrics, stall timelines, findings, reporting."""

from .findings import FINDINGS, findings_of, verdict_table
from .metrics import FlowMetrics, compute_metrics
from .reporting import (
    ascii_chart,
    format_campaign_summary,
    format_table,
    format_triage_report,
)
from .timeline import BbrBugEvidence, bbr_bug_evidence, describe_bug_timeline

__all__ = [
    "BbrBugEvidence",
    "FINDINGS",
    "FlowMetrics",
    "ascii_chart",
    "bbr_bug_evidence",
    "compute_metrics",
    "describe_bug_timeline",
    "findings_of",
    "format_campaign_summary",
    "format_table",
    "format_triage_report",
    "verdict_table",
]
