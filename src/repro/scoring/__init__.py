"""Scoring functions: performance scores, trace scores and realism scoring."""

from .base import PerformanceScore, Score, ScoreFunction, TraceScore
from .objectives import OBJECTIVES, make_score_function
from .performance import (
    CompositeScore,
    HighDelayScore,
    HighLossScore,
    LowUtilizationScore,
    RetransmissionScore,
    StallScore,
    WholeRunThroughputScore,
)
from .realism import RealismReport, RealismScorer, default_reference_panel
from .trace_score import MinimalTrafficScore, NullTraceScore, SmoothnessScore
from .windowed import bottom_fraction_mean, percentile, top_fraction_mean

__all__ = [
    "CompositeScore",
    "HighDelayScore",
    "HighLossScore",
    "LowUtilizationScore",
    "MinimalTrafficScore",
    "NullTraceScore",
    "OBJECTIVES",
    "PerformanceScore",
    "RealismReport",
    "RealismScorer",
    "RetransmissionScore",
    "Score",
    "ScoreFunction",
    "SmoothnessScore",
    "StallScore",
    "TraceScore",
    "WholeRunThroughputScore",
    "bottom_fraction_mean",
    "default_reference_panel",
    "make_score_function",
    "percentile",
    "top_fraction_mean",
]
