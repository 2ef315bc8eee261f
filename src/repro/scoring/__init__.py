"""Scoring functions: performance scores, trace scores and realism scoring."""

from .base import PerformanceScore, Score, ScoreFunction, TraceScore
from .objectives import OBJECTIVES, make_score_function
from .performance import (
    HighDelayScore,
    HighLossScore,
    LowUtilizationScore,
    WholeRunThroughputScore,
)
from .realism import RealismReport, RealismScorer, default_reference_panel
from .trace_score import MinimalTrafficScore
from .windowed import bottom_fraction_mean, percentile, top_fraction_mean

__all__ = [
    "HighDelayScore",
    "HighLossScore",
    "LowUtilizationScore",
    "MinimalTrafficScore",
    "OBJECTIVES",
    "PerformanceScore",
    "RealismReport",
    "RealismScorer",
    "Score",
    "ScoreFunction",
    "TraceScore",
    "WholeRunThroughputScore",
    "bottom_fraction_mean",
    "default_reference_panel",
    "make_score_function",
    "percentile",
    "top_fraction_mean",
]
