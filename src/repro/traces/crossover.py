"""Crossover operators.

The paper only defines crossover for traffic traces (section 3.3): choose a
split point by packet count, take the left part of one parent and the right
part of the other, and combine the timestamp sets.  The child's packet count
therefore varies naturally with the parents.  Link traces use no crossover
(section 3.2) because there is no obvious way to splice two service curves
while preserving the total-packet and rate-variation invariants.
"""

from __future__ import annotations

import random
from typing import Tuple

from .trace import LossTrace, TrafficTrace


def crossover_traffic_traces(
    parent_a: TrafficTrace,
    parent_b: TrafficTrace,
    rng: random.Random,
) -> TrafficTrace:
    """Splice the left half of one parent with the right half of the other."""
    if abs(parent_a.duration - parent_b.duration) > 1e-9:
        raise ValueError("crossover requires parents with identical durations")
    # Randomly decide which parent contributes the left part.
    if rng.random() < 0.5:
        left_parent, right_parent = parent_a, parent_b
    else:
        left_parent, right_parent = parent_b, parent_a

    # Split point chosen by packet count (as a fraction, so it is meaningful
    # for parents of different sizes); the corresponding *time* boundary comes
    # from the left parent so the child's left portion ends where it should.
    fraction = rng.random()
    left_count = int(round(fraction * left_parent.packet_count))
    left_part = left_parent.timestamps[:left_count]
    boundary = left_part[-1] if left_part else 0.0

    right_start = int(round(fraction * right_parent.packet_count))
    right_part = [t for t in right_parent.timestamps[right_start:] if t >= boundary]

    max_packets = max(parent_a.max_packets, parent_b.max_packets)
    combined = sorted(left_part + right_part)
    if len(combined) > max_packets:
        # Respect the global injection budget by dropping a random subset.
        drop = len(combined) - max_packets
        for _ in range(drop):
            combined.pop(rng.randrange(len(combined)))

    child = TrafficTrace(
        timestamps=combined,
        duration=parent_a.duration,
        mss_bytes=parent_a.mss_bytes,
        metadata={"kind": "traffic", "crossover": True},
        max_packets=max_packets,
    )
    return child


def crossover_loss_traces(
    parent_a: LossTrace,
    parent_b: LossTrace,
    rng: random.Random,
) -> LossTrace:
    """Same splice operation for loss schedules (section 5 extension)."""
    if abs(parent_a.duration - parent_b.duration) > 1e-9:
        raise ValueError("crossover requires parents with identical durations")
    split_time = rng.uniform(0.0, parent_a.duration)
    left = [t for t in parent_a.timestamps if t < split_time]
    right = [t for t in parent_b.timestamps if t >= split_time]
    return LossTrace(
        timestamps=left + right,
        duration=parent_a.duration,
        mss_bytes=parent_a.mss_bytes,
        metadata={"kind": "loss", "crossover": True},
    )


#: Fuzzing mode -> its splice operator.  A mode absent here (link) breeds by
#: mutation alone; the GA asks this table rather than naming modes itself.
CROSSOVER_OPERATORS = {
    "traffic": crossover_traffic_traces,
    "loss": crossover_loss_traces,
}


def crossover_traces(parent_a, parent_b, rng: random.Random):
    """Splice two parents of one mode with that mode's crossover operator."""
    operator = CROSSOVER_OPERATORS.get(parent_a.mode)
    if operator is None or parent_b.mode != parent_a.mode:
        raise TypeError(
            f"no crossover operator for trace types {type(parent_a).__name__} / {type(parent_b).__name__}"
        )
    return operator(parent_a, parent_b, rng)
