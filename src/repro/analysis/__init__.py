"""Analysis utilities: metrics, stall timelines, findings, reporting."""
