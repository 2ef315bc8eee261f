"""Initial-population trace generators.

One generator per fuzzing mode:

* :class:`LinkTraceGenerator` — service curves with a fixed total packet
  count (fixed average bandwidth) and bounded long-term rate variation.
* :class:`TrafficTraceGenerator` — cross-traffic injection vectors with a
  variable packet count up to a maximum and no local rate constraints.
* :class:`LossTraceGenerator` — random-loss schedules (the future-work
  extension of section 5, provided as an extra mode).
"""

from __future__ import annotations

import math
import random
from typing import List, Optional

from ..netsim.link import mbps_to_pps
from .distpackets import DEFAULT_K_AGG, DEFAULT_RATE_BOUND, dist_packets
from .trace import LinkTrace, LossTrace, PacketTrace, TrafficTrace


def _positive_finite(name: str, value: float) -> float:
    """``value``, or a ``ValueError`` naming ``name`` unless it is in (0, inf)."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite")
    return value


class TraceGenerator:
    """What every mode's generator is: ``generate`` draws one trace from ``self.rng``."""

    def generate(self) -> PacketTrace:
        raise NotImplementedError

    def generate_population(self, count: int) -> List[PacketTrace]:
        return [self.generate() for _ in range(count)]


class LinkTraceGenerator(TraceGenerator):
    """Generates bottleneck service curves (link-fuzzing mode, section 3.2)."""

    def __init__(
        self,
        duration: float,
        average_rate_mbps: float = 12.0,
        mss_bytes: int = 1500,
        k_agg: float = DEFAULT_K_AGG,
        rate_bound: float = DEFAULT_RATE_BOUND,
        total_packets: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.duration = _positive_finite("duration", duration)
        self.mss_bytes = mss_bytes
        self.k_agg = k_agg
        self.rate_bound = rate_bound
        self.average_rate_mbps = _positive_finite("average rate", average_rate_mbps)
        if total_packets is None:
            total_packets = int(round(mbps_to_pps(average_rate_mbps, mss_bytes) * duration))
        if total_packets <= 0:
            raise ValueError("total_packets must be positive")
        self.total_packets = total_packets
        self.rng = random.Random(seed)

    def generate(self) -> LinkTrace:
        """One service curve with the configured total packet budget."""
        timestamps = dist_packets(
            self.total_packets,
            0.0,
            self.duration,
            self.rng,
            k_agg=self.k_agg,
            rate_bound=self.rate_bound,
        )
        return LinkTrace(
            timestamps=timestamps,
            duration=self.duration,
            mss_bytes=self.mss_bytes,
            metadata={"kind": "link", "k_agg": self.k_agg, "rate_bound": self.rate_bound},
        )


class TrafficTraceGenerator(TraceGenerator):
    """Generates cross-traffic injection vectors (traffic-fuzzing mode, section 3.3)."""

    def __init__(
        self,
        duration: float,
        max_packets: int,
        mss_bytes: int = 1500,
        k_agg: float = DEFAULT_K_AGG,
        min_packets: int = 0,
        seed: Optional[int] = None,
    ) -> None:
        self.duration = _positive_finite("duration", duration)
        if max_packets <= 0:
            raise ValueError("max_packets must be positive")
        if not 0 <= min_packets <= max_packets:
            raise ValueError("min_packets must lie in [0, max_packets]")
        self.max_packets = max_packets
        self.min_packets = min_packets
        self.mss_bytes = mss_bytes
        self.k_agg = k_agg
        self.rng = random.Random(seed)

    def generate(self) -> TrafficTrace:
        """One injection vector with a random packet budget (no rate bounds)."""
        count = self.rng.randint(self.min_packets, self.max_packets)
        timestamps = dist_packets(
            count,
            0.0,
            self.duration,
            self.rng,
            k_agg=self.k_agg,
            rate_bound=None,
        )
        return TrafficTrace(
            timestamps=timestamps,
            duration=self.duration,
            mss_bytes=self.mss_bytes,
            metadata={"kind": "traffic"},
            max_packets=self.max_packets,
        )


class LossTraceGenerator(TraceGenerator):
    """Generates random-loss schedules (section 5 extension).

    A loss trace is a set of times; the simulation drops the next CCA packet
    that would depart the bottleneck after each time.
    """

    def __init__(
        self,
        duration: float,
        max_losses: int,
        min_losses: int = 0,
        seed: Optional[int] = None,
    ) -> None:
        if max_losses < 0:
            raise ValueError("max_losses must be non-negative")
        self.duration = _positive_finite("duration", duration)
        self.max_losses = max_losses
        self.min_losses = min_losses
        self.rng = random.Random(seed)

    def generate(self) -> LossTrace:
        count = self.rng.randint(self.min_losses, self.max_losses)
        timestamps = sorted(self.rng.uniform(0.0, self.duration) for _ in range(count))
        return LossTrace(
            timestamps=timestamps,
            duration=self.duration,
            metadata={"kind": "loss"},
        )
