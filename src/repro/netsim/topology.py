"""Dumbbell topology assembly.

The paper's network model (section 3.1): two sources — the flow under test
and a cross-traffic source — feed a gateway with a fixed-size drop-tail FIFO
queue; the gateway is connected to the sink by a bottleneck link with fixed
propagation delay.  ACKs return over an uncongested reverse path with the
same propagation delay.

The FIFO holds :class:`Packet`s of the flow under test and cross admission
times.  Cross traffic is open-loop and only counted at the sink, so it is no
object at all: the link takes the pre-sorted injection times at start and
runs them in its own schedule (see :mod:`repro.netsim.link`), records the
admission and departure times of the cross packets it delivers, and the
monitor derives the cross flow's series from those columns when they are
first read.  Neither injections nor sink arrivals are scheduler entries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from ..tcp.cca.base import CongestionControl
from ..tcp.receiver import TcpReceiver
from ..tcp.sender import TcpSender
from .engine import EventScheduler, sorted_input_times
from .link import FixedRateLink, Link, TraceDrivenLink, mbps_to_pps
from .monitor import FlowMonitor
from .packet import CROSS_FLOW, AckPacket, Packet
from .queue import DropTailQueue

if TYPE_CHECKING:
    from .simulation import SimulationConfig


class DumbbellTopology:
    """Wires the sender, cross traffic, gateway queue, bottleneck and sink.

    Every setting comes from ``config``; the keyword arguments are the run's
    inputs (see :func:`repro.netsim.simulation.run_simulation`).
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        cca: CongestionControl,
        config: SimulationConfig,
        *,
        link_trace: Optional[Sequence[float]],
        cross_traffic_times: Optional[Sequence[float]],
        loss_times: Optional[Sequence[float]],
        drop_filter: Optional[Callable[["Packet", float], bool]],
    ) -> None:
        self.scheduler = scheduler
        self.config = config
        self.propagation_delay = config.propagation_delay
        # record_series=False (fuzzing) skips the series no evaluation
        # reads: queue-depth samples and the sender's cwnd/pacing/RTT series.
        # The monitor's derived series — what the scoring functions and
        # behavior signatures consume — are always collected.
        self.monitor = FlowMonitor()

        self.queue = DropTailQueue(
            capacity_packets=config.queue_capacity, sample_depth=config.record_series
        )

        if link_trace is not None:
            self.link: Link = TraceDrivenLink(
                scheduler,
                self.queue,
                self._deliver_to_sink,
                opportunities=link_trace,
                propagation_delay=config.propagation_delay,
            )
        else:
            self.link = FixedRateLink(
                scheduler,
                self.queue,
                self._deliver_to_sink,
                rate_pps=mbps_to_pps(config.bottleneck_rate_mbps, config.mss_bytes),
                propagation_delay=config.propagation_delay,
            )

        self.receiver = TcpReceiver(
            scheduler,
            send_ack=self._return_ack,
            delayed_ack=config.delayed_ack,
            delack_timeout=config.delack_timeout,
        )
        self.sender = TcpSender(
            scheduler,
            cca=cca,
            transmit=self._send_from_source,
            mss_bytes=config.mss_bytes,
            min_rto=config.min_rto,
            start_time=config.sender_start_time,
            record_series=config.record_series,
        )

        # Cross-traffic injections, pre-sorted for the link's schedule.
        self._cross_times: Optional[List[float]] = None
        if cross_traffic_times is not None:
            self._cross_times = sorted_input_times(
                cross_traffic_times, "cross-traffic injection times"
            )

        # ACKs return after the same fixed propagation delay as forward-path
        # deliveries, from nondecreasing emission times: the propagation lane.
        self._ack_lane = scheduler.lane

        # Random-loss schedule (section 5 extension): each entry drops the
        # next CCA packet departing the bottleneck at or after that time.
        self._pending_losses = sorted_input_times(loss_times or (), "loss times")
        self.forced_losses = 0
        # Fault-injection hook: drops matching CCA packets before they reach
        # the gateway (used to reproduce specific loss patterns such as
        # "lose segment N and its first retransmission", Fig. 4c).
        self._drop_filter = drop_filter

    # ------------------------------------------------------------------ #
    # Wiring callbacks
    # ------------------------------------------------------------------ #

    def _send_from_source(self, packet: Packet) -> None:
        """Sender hand-off: the access link is infinitely fast (section 3.1)."""
        now = self.scheduler.now
        if self._drop_filter is not None and self._drop_filter(packet, now):
            self.forced_losses += 1
            self.monitor.on_ingress(packet, now, admitted=False)
            return
        admitted = self.link.admit(packet, now)
        self.monitor.on_ingress(packet, now, admitted)

    def _deliver_to_sink(self, packet: Packet) -> None:
        """A packet of the flow under test reaches the receiver."""
        now = self.scheduler.now
        if self._pending_losses and now >= self._pending_losses[0]:
            self._pending_losses.pop(0)
            self.forced_losses += 1
            return
        self.monitor.on_egress(packet, now)
        self.receiver.on_segment(packet)

    def _return_ack(self, ack: AckPacket) -> None:
        self._ack_lane.push_at(
            self.scheduler.now + self.propagation_delay, self.sender.on_ack, ack
        )

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    @property
    def cross_sent(self) -> int:
        """Cross packets injected so far: the link's cross arrivals that ran."""
        return self.link.cross_sent

    @property
    def cross_delivered(self) -> int:
        """Cross packets that reached the sink by the run's horizon."""
        return len(self.link.cross_departures)

    def start(self) -> None:
        """Install all initial events."""
        self.link.start(self.config.duration, self._cross_times or ())
        self.sender.start()

    def run(self) -> int:
        """Run to ``config.duration`` (or the ``config.max_events`` cap);
        returns the number of scheduler events executed (cross-traffic sink
        arrivals are none)."""
        self.start()
        executed = self.scheduler.run(
            until=self.config.duration, max_events=self.config.max_events
        )
        # Propagate queue depth samples to the monitor for analysis
        # (``depth_samples`` materialises a fresh list of pairs).
        self.monitor.queue_depth = self.queue.depth_samples
        if self._cross_times is not None:
            link = self.link
            self.monitor.record_cross_traffic(
                self._cross_times[: self.cross_sent],
                self.queue.drops.get(CROSS_FLOW, 0),
                link.cross_admissions,
                link.cross_departures,
                self.propagation_delay,
            )
        return executed
