"""Per-flow measurement collection.

The monitor records every packet admission (ingress), bottleneck departure
(egress) and drop, plus queue-depth samples, and derives the time series the
paper plots: ingress/egress rates (Fig. 4a/4b), per-packet queueing delay
(Fig. 4e) and windowed throughput used by the low-utilisation score
(section 3.4).

The gateway FIFO holds :class:`Packet`s of the flow under test and cross
admission times, and the monitor follows the same split.  The flow under
test is streamed into append-only columns (ingress times, egress times,
delay pairs) plus a drop counter.  The cross flow is handed over after the
run as the columns the link and queue keep
(:meth:`FlowMonitor.record_cross_traffic`), and its columns are derived from
them the first time one is read; fuzzing reads only the counts, which the
topology keeps.  Every series and counter is read off those columns, so
nothing is kept per packet beyond them, and what is collected does not
depend on ``record_series`` (which only gates the queue-depth samples the
topology feeds in and the sender's per-ACK series).
"""

from __future__ import annotations

import bisect
from operator import sub
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .packet import CCA_FLOW, CROSS_FLOW, Packet


class _FlowSeries:
    """The columns of one flow."""

    __slots__ = ("ingress_times", "egress_times", "delay_pairs", "dropped")

    def __init__(self) -> None:
        self.ingress_times: List[float] = []
        #: Sink arrival times, in time order (the order a simulation delivers).
        self.egress_times: List[float] = []
        self.delay_pairs: List[Tuple[float, float]] = []
        self.dropped = 0


_EMPTY = _FlowSeries()


def _cross_series(
    injections: Sequence[float],
    dropped: int,
    admissions: Sequence[float],
    departures: Sequence[float],
    propagation_delay: float,
) -> _FlowSeries:
    """The cross flow's columns, as streaming its packets would have built
    them: a sink arrival is ``departure + propagation_delay``, the expression
    the link compared with the horizon."""
    series = _FlowSeries()
    series.ingress_times = list(injections)
    series.dropped = dropped
    egress = series.egress_times = [d + propagation_delay for d in departures]
    series.delay_pairs = [(e, d - a) for e, d, a in zip(egress, departures, admissions)]
    return series


class FlowMonitor:
    """Collects packet-level measurements for every flow in a simulation."""

    __slots__ = ("queue_depth", "_flows", "_tested", "_cross")

    def __init__(self) -> None:
        self.queue_depth: List[Tuple[float, int]] = []
        self._tested = _FlowSeries()
        self._flows: Dict[str, _FlowSeries] = {CCA_FLOW: self._tested}
        self._cross: Optional[Tuple[Any, ...]] = None

    def on_ingress(self, packet: Packet, now: float, admitted: bool) -> None:
        """Record a packet of the flow under test arriving at the gateway
        (admitted or dropped)."""
        series = self._tested
        series.ingress_times.append(now)
        if not admitted:
            series.dropped += 1

    def on_egress(self, packet: Packet, now: float) -> None:
        """Record a packet of the flow under test reaching the sink."""
        # The queue admission stamp is the ingress time (both are taken at
        # the same instant); packets that never reached the gateway carry no
        # stamp and are ignored.
        ingress_time = packet.enqueue_time
        if ingress_time is None:
            return
        series = self._tested
        series.egress_times.append(now)
        dequeue_time = packet.dequeue_time
        departed = dequeue_time if dequeue_time is not None else now
        series.delay_pairs.append((now, departed - ingress_time))

    def record_cross_traffic(
        self,
        injections: Sequence[float],
        dropped: int,
        admissions: Sequence[float],
        departures: Sequence[float],
        propagation_delay: float,
    ) -> None:
        """Hand over the cross flow: its injection times, how many of them
        the queue dropped, and the admission and departure times of each
        packet that reached the sink.  Its columns are derived on first read."""
        self._cross = (injections, dropped, admissions, departures, propagation_delay)

    def _series(self, flow: str) -> _FlowSeries:
        series = self._flows.get(flow)
        if series is None:
            if flow != CROSS_FLOW or self._cross is None:
                return _EMPTY
            series = self._flows[flow] = _cross_series(*self._cross)
        return series

    # ------------------------------------------------------------------ #
    # Derived series
    # ------------------------------------------------------------------ #

    def egress_times(self, flow: str) -> List[float]:
        """Sorted departure times of delivered packets for ``flow``."""
        times = list(self._series(flow).egress_times)
        # Simulation time is nondecreasing, so this is a cheap no-op sort in
        # practice; it keeps the sorted-output contract for hand-fed monitors.
        times.sort()
        return times

    def ingress_times(self, flow: str) -> List[float]:
        times = list(self._series(flow).ingress_times)
        times.sort()
        return times

    def drops(self, flow: str) -> int:
        return self._series(flow).dropped

    def delivered_count(self, flow: str) -> int:
        return len(self._series(flow).egress_times)

    def sent_count(self, flow: str) -> int:
        return len(self._series(flow).ingress_times)

    def queueing_delays(self, flow: str) -> List[Tuple[float, float]]:
        """(egress time, gateway queueing delay) pairs for delivered packets of ``flow``.

        The delay is measured from queue admission to queue departure, so it
        excludes the fixed propagation delay (matching the paper's
        "Queuing Delay" axis in Fig. 4e).
        """
        pairs = list(self._series(flow).delay_pairs)
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
        delivers anything stalls for the whole ``duration``.
        """
        egress = self._series(flow).egress_times
        if not egress:
            return duration
        longest = egress[0]                      # leading gap, from t=0
        inner = max(map(sub, egress[1:], egress), default=0.0)
        if inner > longest:
            longest = inner
        tail_gap = duration - egress[-1]
        if tail_gap > longest:
            longest = tail_gap
        return longest

    def flow_episodes(self, flow: str, duration: float) -> Dict[str, float]:
        """Per-flow episode counters (for scoring + signatures)."""
        series = self._series(flow)
        egress = series.egress_times
        return {
            "sent": len(series.ingress_times),
            "delivered": len(egress),
            "dropped": series.dropped,
            "first_egress": egress[0] if egress else None,
            "last_egress": egress[-1] if egress else None,
            "max_egress_gap": self.max_egress_gap(flow, duration),
        }

    def average_rate_mbps(self, flow: str, duration: float, mss_bytes: int = 1500) -> float:
        """Average egress rate of ``flow`` over the whole run."""
        if duration <= 0:
            return 0.0
        return self.delivered_count(flow) * mss_bytes * 8.0 / duration / 1e6

    def loss_rate(self, flow: str) -> float:
        """Fraction of packets of ``flow`` dropped at the gateway."""
        series = self._series(flow)
        if not series.ingress_times:
            return 0.0
        return series.dropped / len(series.ingress_times)
