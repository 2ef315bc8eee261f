"""Mutation operators.

Link-trace mutation (section 3.2): pick a random split point, keep one side
unchanged, and regenerate the other side with DIST_PACKETS using the same
packet count — this preserves the initial generation's invariants (total
packet budget, bounded rate variation).

Traffic-trace mutation (section 3.3): same split-and-regenerate structure,
but the regenerated portion's packet count is re-drawn at random (bounded so
the whole trace stays within ``max_packets``), and no rate constraints are
applied.
"""

from __future__ import annotations

import bisect
import random
from typing import Optional

from .distpackets import dist_packets
from .trace import LinkTrace, LossTrace, TrafficTrace

#: Standard deviation (s) of the Gaussian nudge ``mutate_loss_trace`` gives one
#: loss time.
LOSS_JITTER_S = 0.1


def _mutant(parent, timestamps):
    """``parent`` with new event times: same mode, duration, MSS and budget."""
    mutated = parent.with_timestamps(timestamps)
    mutated.metadata["mutated"] = True
    return mutated


def mutate_link_trace(trace: LinkTrace, rng: random.Random) -> LinkTrace:
    """Regenerate one side of a random split point, preserving packet count."""
    if trace.packet_count == 0:
        return trace.copy()
    split_time = rng.uniform(0.0, trace.duration)
    split_index = bisect.bisect_left(trace.timestamps, split_time)
    regenerate_left = rng.random() < 0.5

    if regenerate_left:
        kept = trace.timestamps[split_index:]
        count = split_index
        regenerated = dist_packets(count, 0.0, split_time, rng)
        new_timestamps = regenerated + kept
    else:
        kept = trace.timestamps[:split_index]
        count = trace.packet_count - split_index
        regenerated = dist_packets(count, split_time, trace.duration, rng)
        new_timestamps = kept + regenerated

    return _mutant(trace, new_timestamps)


def mutate_traffic_trace(trace: TrafficTrace, rng: random.Random) -> TrafficTrace:
    """Regenerate one side of a random split with a re-drawn packet count."""
    split_time = rng.uniform(0.0, trace.duration)
    split_index = bisect.bisect_left(trace.timestamps, split_time)
    regenerate_left = rng.random() < 0.5

    if regenerate_left:
        kept = trace.timestamps[split_index:]
        budget = max(0, trace.max_packets - len(kept))
        count = rng.randint(0, budget)
        regenerated = dist_packets(count, 0.0, split_time, rng, rate_bound=None)
        new_timestamps = regenerated + kept
    else:
        kept = trace.timestamps[:split_index]
        budget = max(0, trace.max_packets - len(kept))
        count = rng.randint(0, budget)
        regenerated = dist_packets(count, split_time, trace.duration, rng, rate_bound=None)
        new_timestamps = kept + regenerated

    return _mutant(trace, new_timestamps)


def mutate_loss_trace(
    trace: LossTrace,
    rng: random.Random,
    max_losses: Optional[int],
) -> LossTrace:
    """Perturb a loss schedule: jitter, add or remove individual loss times."""
    max_losses = max_losses if max_losses is not None else max(trace.packet_count, 1)
    times = list(trace.timestamps)
    action = rng.random()
    if action < 0.4 and times:
        # Jitter one loss time.
        idx = rng.randrange(len(times))
        times[idx] = min(max(times[idx] + rng.gauss(0.0, LOSS_JITTER_S), 0.0), trace.duration)
    elif action < 0.7 and len(times) < max_losses:
        times.append(rng.uniform(0.0, trace.duration))
    elif times:
        times.pop(rng.randrange(len(times)))
    return _mutant(trace, times)


def mutate_trace(trace, rng: random.Random, max_losses: Optional[int] = None):
    """Apply the mutation operator of ``trace``'s mode — the one type dispatcher.

    Link and traffic regeneration use DIST_PACKETS' ``DEFAULT_K_AGG``, and
    ``DEFAULT_RATE_BOUND`` constrains link traces only; ``max_losses`` caps a
    loss schedule.
    """
    if trace.mode == "link":
        return mutate_link_trace(trace, rng)
    if trace.mode == "traffic":
        return mutate_traffic_trace(trace, rng)
    if trace.mode == "loss":
        return mutate_loss_trace(trace, rng, max_losses=max_losses)
    raise TypeError(f"no mutation operator for trace type {type(trace).__name__}")
