"""Per-flow measurement collection.

The monitor records every packet admission (ingress), bottleneck departure
(egress) and drop, plus queue-depth samples, and derives the time series the
paper plots: ingress/egress rates (Fig. 4a/4b), per-packet queueing delay
(Fig. 4e) and windowed throughput used by the low-utilisation score
(section 3.4).

The collection path is streaming: per-flow append-only columnar accumulators
(parallel lists of times and flags) and incremental counters are maintained
as packets flow, so every derived series — ``egress_times``,
``queueing_delays``, ``windowed_rate``, ``loss_rate`` — is O(flow) to read.
Nothing is kept per packet beyond those columns, and what is collected does
not depend on ``record_series`` (which only gates the queue-depth samples
the topology feeds in and the sender's per-ACK series).
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

from .packet import Packet


class _FlowSeries:
    """Streaming accumulators for one flow."""

    __slots__ = (
        "ingress_times",
        "egress_times",
        "delay_pairs",
        "sent",
        "delivered",
        "dropped",
        "first_egress",
        "last_egress",
        "max_inner_gap",
    )

    def __init__(self) -> None:
        self.ingress_times: List[float] = []
        self.egress_times: List[float] = []
        self.delay_pairs: List[Tuple[float, float]] = []
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        # Streaming delivery-gap accumulators (egress is time-ordered in a
        # simulation): the largest inter-departure gap seen so far, plus the
        # endpoints needed to account for the leading and trailing silence.
        self.first_egress: Optional[float] = None
        self.last_egress: Optional[float] = None
        self.max_inner_gap = 0.0


_EMPTY = _FlowSeries()


class FlowMonitor:
    """Collects packet-level measurements for every flow in a simulation."""

    __slots__ = ("queue_depth", "_flows")

    def __init__(self) -> None:
        self.queue_depth: List[Tuple[float, int]] = []
        self._flows: Dict[str, _FlowSeries] = {}

    def on_ingress(self, packet: Packet, now: float, admitted: bool) -> None:
        """Record a packet arriving at the gateway (admitted or dropped)."""
        series = self._flows.get(packet.flow)
        if series is None:
            series = self._flows[packet.flow] = _FlowSeries()
        series.sent += 1
        series.ingress_times.append(now)
        if not admitted:
            series.dropped += 1

    def on_egress(self, packet: Packet, now: float) -> None:
        """Record a packet leaving the bottleneck link."""
        # The queue admission stamp is the ingress time (both are taken at
        # the same instant); packets that never reached the gateway carry no
        # stamp and are ignored.
        ingress_time = packet.enqueue_time
        if ingress_time is None:
            return
        series = self._flows.get(packet.flow)
        if series is None:
            return
        series.delivered += 1
        series.egress_times.append(now)
        last = series.last_egress
        if last is None:
            series.first_egress = now
        else:
            gap = now - last
            if gap > series.max_inner_gap:
                series.max_inner_gap = gap
        series.last_egress = now
        dequeue_time = packet.dequeue_time
        departed = dequeue_time if dequeue_time is not None else now
        series.delay_pairs.append((now, departed - ingress_time))

    # ------------------------------------------------------------------ #
    # Derived series
    # ------------------------------------------------------------------ #

    def egress_times(self, flow: str) -> List[float]:
        """Sorted departure times of delivered packets for ``flow``."""
        times = list(self._flows.get(flow, _EMPTY).egress_times)
        # Simulation time is nondecreasing, so this is a cheap no-op sort in
        # practice; it keeps the sorted-output contract for hand-fed monitors.
        times.sort()
        return times

    def ingress_times(self, flow: str) -> List[float]:
        times = list(self._flows.get(flow, _EMPTY).ingress_times)
        times.sort()
        return times

    def drops(self, flow: str) -> int:
        return self._flows.get(flow, _EMPTY).dropped

    def delivered_count(self, flow: str) -> int:
        return self._flows.get(flow, _EMPTY).delivered

    def sent_count(self, flow: str) -> int:
        return self._flows.get(flow, _EMPTY).sent

    def queueing_delays(self, flow: str) -> List[Tuple[float, float]]:
        """(egress time, gateway queueing delay) pairs for delivered packets of ``flow``.

        The delay is measured from queue admission to queue departure, so it
        excludes the fixed propagation delay (matching the paper's
        "Queuing Delay" axis in Fig. 4e).
        """
        pairs = list(self._flows.get(flow, _EMPTY).delay_pairs)
        pairs.sort()
        return pairs

    def windowed_rate(
        self,
        flow: str,
        window: float,
        duration: float,
        mss_bytes: int = 1500,
        use_ingress: bool = False,
    ) -> List[Tuple[float, float]]:
        """Windowed rate in Mbps over consecutive ``window``-second bins.

        Returns a list of ``(window_start_time, rate_mbps)`` tuples covering
        ``[0, duration)``.
        """
        if window <= 0:
            raise ValueError("window must be positive")
        times = self.ingress_times(flow) if use_ingress else self.egress_times(flow)
        series: List[Tuple[float, float]] = []
        start = 0.0
        while start < duration:
            end = min(start + window, duration)
            lo = bisect.bisect_left(times, start)
            hi = bisect.bisect_left(times, end)
            count = hi - lo
            span = end - start
            rate_mbps = count * mss_bytes * 8.0 / span / 1e6 if span > 0 else 0.0
            series.append((start, rate_mbps))
            start += window
        return series

    def max_egress_gap(self, flow: str, duration: float) -> float:
        """Longest interval of ``[0, duration]`` with no delivered packet.

        Includes the leading gap (start of run to first delivery) and the
        trailing gap (last delivery to end of run); a flow that never
        delivers anything stalls for the whole ``duration``.  Maintained
        incrementally from the egress stream, so reading it is O(1).
        """
        series = self._flows.get(flow, _EMPTY)
        if series.last_egress is None:
            return duration
        longest = series.first_egress            # leading gap, from t=0
        if series.max_inner_gap > longest:
            longest = series.max_inner_gap
        tail_gap = duration - series.last_egress
        if tail_gap > longest:
            longest = tail_gap
        return longest

    def flow_episodes(self, flow: str, duration: float) -> Dict[str, float]:
        """Single-pass per-flow episode counters (for scoring + signatures)."""
        series = self._flows.get(flow, _EMPTY)
        return {
            "sent": series.sent,
            "delivered": series.delivered,
            "dropped": series.dropped,
            "first_egress": series.first_egress,
            "last_egress": series.last_egress,
            "max_egress_gap": self.max_egress_gap(flow, duration),
        }

    def average_rate_mbps(self, flow: str, duration: float, mss_bytes: int = 1500) -> float:
        """Average egress rate of ``flow`` over the whole run."""
        if duration <= 0:
            return 0.0
        return self.delivered_count(flow) * mss_bytes * 8.0 / duration / 1e6

    def loss_rate(self, flow: str) -> float:
        """Fraction of packets of ``flow`` dropped at the gateway."""
        series = self._flows.get(flow, _EMPTY)
        if series.sent == 0:
            return 0.0
        return series.dropped / series.sent
