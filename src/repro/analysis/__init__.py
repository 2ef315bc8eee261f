"""Analysis utilities: metrics, queueing analysis, stall timelines, reporting."""

from .metrics import FlowMetrics, compute_metrics, goodput_mbps
from .queueing import max_queue_depth, queue_depth_series, time_above_delay
from .reporting import (
    ascii_chart,
    format_campaign_summary,
    format_comparison,
    format_generation_progress,
    format_table,
    format_triage_report,
)
from .timeline import (
    BbrBugEvidence,
    StallPeriod,
    bbr_bug_evidence,
    describe_bug_timeline,
    extract_stall_periods,
)

__all__ = [
    "BbrBugEvidence",
    "FlowMetrics",
    "StallPeriod",
    "ascii_chart",
    "bbr_bug_evidence",
    "compute_metrics",
    "describe_bug_timeline",
    "extract_stall_periods",
    "format_campaign_summary",
    "format_comparison",
    "format_generation_progress",
    "format_table",
    "format_triage_report",
    "goodput_mbps",
    "max_queue_depth",
    "queue_depth_series",
    "time_above_delay",
]
