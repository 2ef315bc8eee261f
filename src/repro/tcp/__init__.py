"""TCP substrate: sender, receiver and congestion-control algorithms."""
