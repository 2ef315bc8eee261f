"""Trace generation substrate: DIST_PACKETS, trace types, mutation, crossover."""

from .constraints import (
    TraceValidationError,
    burstiness_index,
    is_valid_trace,
    longest_silence,
    max_rate_deviation,
    validate_trace,
    windowed_rate_extremes,
)
from .crossover import crossover_loss_traces, crossover_traces, crossover_traffic_traces
from .distpackets import DEFAULT_K_AGG, DEFAULT_RATE_BOUND, dist_packets
from .generator import LinkTraceGenerator, LossTraceGenerator, TrafficTraceGenerator
from .mutation import (
    mutate_link_trace,
    mutate_loss_trace,
    mutate_trace,
    mutate_traffic_trace,
)
from .trace import LinkTrace, LossTrace, PacketTrace, TrafficTrace

__all__ = [
    "DEFAULT_K_AGG",
    "DEFAULT_RATE_BOUND",
    "LinkTrace",
    "LinkTraceGenerator",
    "LossTrace",
    "LossTraceGenerator",
    "PacketTrace",
    "TraceValidationError",
    "TrafficTrace",
    "TrafficTraceGenerator",
    "burstiness_index",
    "crossover_loss_traces",
    "crossover_traces",
    "crossover_traffic_traces",
    "dist_packets",
    "is_valid_trace",
    "longest_silence",
    "max_rate_deviation",
    "mutate_link_trace",
    "mutate_loss_trace",
    "mutate_trace",
    "mutate_traffic_trace",
    "validate_trace",
    "windowed_rate_extremes",
]
