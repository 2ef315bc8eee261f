"""Scoring functions: performance scores, trace scores and realism scoring."""
