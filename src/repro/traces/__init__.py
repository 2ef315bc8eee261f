"""Trace generation substrate: DIST_PACKETS, trace types, mutation, crossover."""
