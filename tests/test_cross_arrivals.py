"""Cross traffic as admission times matches cross traffic as packets.

The simulator keeps cross traffic as columns: the gateway FIFO holds each
cross packet as its admission time, the link records the admission and
departure times of those that reach the sink by the horizon, and the monitor
derives the cross flow's series from them on first read.

The oracle here is the path cross traffic took as a packet.  One
``CrossPacket`` per injection is admitted to the link like a packet of the
flow under test, or tail-dropped and counted by ``packet.flow``, and streamed
into the monitor at ingress and egress.  Its
sink arrival is an event on the propagation lane, stamped by the scheduler's
clock when it runs and dropped by the run loop's horizon when it lands after
``duration``.  Swapped into the topology, the packet path must give the same
result bit for bit; the only difference is one scheduler event per cross
packet that reached the sink.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_utils import result_digest
from repro.attacks import builtin_attack_traces
from repro.netsim import simulation, topology
from repro.netsim.link import mbps_to_pps
from repro.netsim.monitor import FlowMonitor, _FlowSeries
from repro.netsim.packet import CCA_FLOW, CROSS_FLOW
from repro.netsim.simulation import SimulationConfig, run_simulation
from repro.tcp import Bbr, Reno
from repro.tcp.cca import cca_factory
from repro.traces.trace import LinkTrace


class CrossPacket:
    """A cross packet as the gateway queue held it: an object with a flow."""

    __slots__ = ("flow", "seq", "is_retransmit", "packet_id", "enqueue_time", "dequeue_time")

    def __init__(self, seq: int) -> None:
        self.flow = CROSS_FLOW
        self.seq = seq
        self.is_retransmit = False
        self.packet_id = ("cross", seq)
        self.enqueue_time = None
        self.dequeue_time = None


def flow_of(packet) -> str:
    """A packet's flow: a ``Packet`` carries none, it is the flow under test."""
    return getattr(packet, "flow", CCA_FLOW)


class StreamingMonitor(FlowMonitor):
    """The monitor that streamed every flow packet by packet."""

    __slots__ = ()

    def on_ingress(self, packet, now, admitted):
        series = self._flows.setdefault(flow_of(packet), _FlowSeries())
        series.ingress_times.append(now)
        if not admitted:
            series.dropped += 1

    def on_egress(self, packet, now):
        series = self._flows.get(flow_of(packet))
        if packet.enqueue_time is None or series is None:
            return
        series.egress_times.append(now)
        departed = packet.dequeue_time if packet.dequeue_time is not None else now
        series.delay_pairs.append((now, departed - packet.enqueue_time))

    def record_cross_traffic(self, injections, dropped, admissions, departures, propagation_delay):
        # The FIFO held no admission times, so the link recorded nothing.
        assert not admissions and not departures


class PacketTopology(topology.DumbbellTopology):
    """The dumbbell with cross traffic as packets and sink arrivals as events.

    Injections are heap entries, scheduled where the link claims its cross
    arrivals' ``seq`` block: right after the opportunities'.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.monitor = StreamingMonitor()
        self.sent = self.dropped = self.delivered = 0

    cross_sent = property(lambda self: self.sent)
    cross_delivered = property(lambda self: self.delivered)

    def start(self):
        horizon = self.config.duration
        self.link.start(horizon)
        for t in self._cross_times or ():
            if t <= horizon:
                self.scheduler.schedule_at(t, self._inject)
        self.sender.start()

    def _inject(self):
        now = self.scheduler.now
        packet = CrossPacket(self.sent)
        self.sent += 1
        queue = self.queue
        admitted = len(queue) < queue.capacity
        if admitted:
            self.link.admit(packet, now)
        else:
            # The queue counted a tail drop by ``packet.flow``.
            self.dropped += 1
            queue.drops[CROSS_FLOW] = queue.drops.get(CROSS_FLOW, 0) + 1
            if queue._sample_depth:
                queue._depth_times.append(now)
                queue._depth_values.append(len(queue))
        self.monitor.on_ingress(packet, now, admitted)

    def _deliver_to_sink(self, packet):
        if flow_of(packet) == CCA_FLOW:
            super()._deliver_to_sink(packet)
            return
        # The link saw no float, so it put the packet on the propagation
        # lane: this is its sink arrival, and the run loop's horizon decides.
        self.monitor.on_egress(packet, self.scheduler.now)
        self.delivered += 1


def run_packet_path(cca, config, monitor_class=StreamingMonitor, **inputs):
    """``run_simulation`` with cross traffic as packets, streamed into
    ``monitor_class``; returns the result and the source's drop count."""
    built = []

    class Topology(PacketTopology):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.monitor = monitor_class()
            built.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulation, "DumbbellTopology", Topology)
        result = run_simulation(cca, config, **inputs)
    return result, built[0].dropped


def _assert_equivalent(cca, config, **inputs):
    """The columnar run equals the packet path; returns the columnar result."""
    columns = run_simulation(cca, config, **inputs)
    packets, source_dropped = run_packet_path(cca, config, **inputs)
    assert result_digest(columns) == result_digest(packets)
    duration = config.duration
    derived, streamed = columns.monitor, packets.monitor
    assert derived.queueing_delays(CROSS_FLOW) == streamed.queueing_delays(CROSS_FLOW)
    assert derived.max_egress_gap(CROSS_FLOW, duration) == streamed.max_egress_gap(
        CROSS_FLOW, duration
    )
    assert derived.flow_episodes(CROSS_FLOW, duration) == streamed.flow_episodes(
        CROSS_FLOW, duration
    )
    assert columns.cross_dropped_at_queue == source_dropped
    assert packets.events_executed - columns.events_executed == columns.cross_delivered
    return columns


GOLDEN_ATTACKS = [
    "lowrate", "cubic-two-burst", "bbr-stall", "bbr-double-loss", "bbr-delay", "bbr-stall-link",
]


@pytest.mark.parametrize("attack", GOLDEN_ATTACKS)
@pytest.mark.parametrize("cca", ["reno", "cubic", "bbr"])
def test_golden_scenarios_match_scheduled_arrivals(attack, cca):
    """The scenarios ``golden_sim_results.json`` pins, at its 5 s duration."""
    trace = builtin_attack_traces(duration=5.0)[attack]
    keyword = "link_trace" if isinstance(trace, LinkTrace) else "cross_traffic_times"
    result = _assert_equivalent(
        cca_factory(cca), SimulationConfig(duration=5.0), **{keyword: trace.timestamps}
    )
    if keyword == "cross_traffic_times":
        assert result.cross_delivered > 0


@settings(max_examples=25, deadline=None)
@given(
    duration=st.floats(min_value=0.2, max_value=1.5),
    fractions=st.lists(st.floats(min_value=0.0, max_value=1.1), max_size=300),
    opportunities=st.one_of(
        st.none(), st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=600)
    ),
    rate_mbps=st.sampled_from([3.0, 12.0, 48.0]),
    queue=st.sampled_from([5, 60]),
    record_series=st.booleans(),
)
def test_random_cross_traffic_matches_scheduled_arrivals(
    duration, fractions, opportunities, rate_mbps, queue, record_series
):
    """Hypothesis cross traffic (some of it after the horizon), on a
    fixed-rate link or with a random service curve."""
    config = SimulationConfig(
        duration=duration, bottleneck_rate_mbps=rate_mbps, queue_capacity=queue,
        record_series=record_series,
    )
    inputs = {"cross_traffic_times": [f * duration for f in fractions]}
    if opportunities is not None:
        inputs["link_trace"] = [f * duration for f in opportunities]
    _assert_equivalent(Bbr, config, **inputs)


def _lone_cross_packet(duration, **inputs):
    """How many cross packets reached the sink in a run of ``duration`` with
    no flow under test (its sender starts after the run); both paths agree."""
    config = SimulationConfig(duration=duration, sender_start_time=duration + 1.0)
    return _assert_equivalent(Reno, config, **inputs).cross_delivered


@pytest.mark.parametrize("link", ["fixed", "trace"])
def test_arrival_at_the_horizon_counts_and_one_just_after_does_not(link):
    """The run loop's horizon is inclusive, and so is the link's."""
    config = SimulationConfig()
    inject = 0.1
    if link == "fixed":
        served = inject + 1.0 / mbps_to_pps(config.bottleneck_rate_mbps, config.mss_bytes)
        inputs = {"cross_traffic_times": [inject]}
    else:
        served = 0.3
        inputs = {"cross_traffic_times": [inject], "link_trace": [served]}
    arrival = served + config.propagation_delay
    assert _lone_cross_packet(arrival, **inputs) == 1
    assert _lone_cross_packet(math.nextafter(arrival, 0.0), **inputs) == 0
