"""Property tests: the FlowMonitor matches the naive seed monitor.

``ReferenceFlowMonitor`` below is the pre-fast-path implementation, kept
nearly verbatim: a single ``records`` list that every derived series
re-scans, one record per packet of either flow.  The FlowMonitor streams the
flow under test into columnar accumulators and derives the cross flow from
the columns the link records; these tests assert both produce identical
derived series — on adversarial hand-driven journeys (hypothesis) and on
randomized whole simulations, where the reference is fed by the packet path
of ``test_cross_arrivals`` — and that nothing an evaluation returns depends
on ``record_series``.
"""

from __future__ import annotations

import bisect
import dataclasses
import random as random_module
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import CampaignSpec, CorpusEntry
from repro.core.fuzzer import FuzzConfig
from repro.exec import EvaluationJob, evaluate_job, job_cache_key
from repro.netsim.monitor import FlowMonitor
from repro.netsim.packet import CCA_FLOW, CROSS_FLOW, Packet
from repro.netsim.simulation import SimulationConfig, run_simulation
from repro.scoring.objectives import make_score_function
from repro.tcp.cca import CCA_FACTORIES, cca_factory
from repro.traces.trace import LinkTrace, LossTrace, TrafficTrace
from test_cross_arrivals import StreamingMonitor, flow_of, run_packet_path

FLOWS = [CCA_FLOW, CROSS_FLOW]


@dataclass
class PacketRecord:
    """One packet's journey through the bottleneck (the reference's row)."""

    flow: str
    seq: int
    is_retransmit: bool
    ingress_time: float
    egress_time: Optional[float] = None      #: arrival at the sink (after propagation)
    dequeue_time: Optional[float] = None     #: departure from the gateway queue
    dropped: bool = False

    @property
    def queueing_delay(self) -> Optional[float]:
        """Time spent queued at the gateway (None for dropped packets)."""
        departed = self.dequeue_time if self.dequeue_time is not None else self.egress_time
        if departed is None:
            return None
        return departed - self.ingress_time


@dataclass
class ReferenceFlowMonitor:
    """The seed implementation: one records list, O(N) rescans per metric."""

    records: List[PacketRecord] = field(default_factory=list)
    queue_depth: List[Tuple[float, int]] = field(default_factory=list)
    _by_packet_id: Dict[object, PacketRecord] = field(default_factory=dict)

    def on_ingress(self, packet: Packet, now: float, admitted: bool, flow: str = CCA_FLOW) -> None:
        record = PacketRecord(
            flow=flow,
            seq=packet.seq,
            is_retransmit=packet.is_retransmit,
            ingress_time=now,
            dropped=not admitted,
        )
        self.records.append(record)
        if admitted:
            self._by_packet_id[packet.packet_id] = record

    def on_egress(self, packet: Packet, now: float) -> None:
        record = self._by_packet_id.get(packet.packet_id)
        if record is not None:
            record.egress_time = now
            record.dequeue_time = packet.dequeue_time

    def egress_times(self, flow: str) -> List[float]:
        times = [
            r.egress_time for r in self.records if r.flow == flow and r.egress_time is not None
        ]
        times.sort()
        return times

    def ingress_times(self, flow: str) -> List[float]:
        times = [r.ingress_time for r in self.records if r.flow == flow]
        times.sort()
        return times

    def drops(self, flow: str) -> int:
        return sum(1 for r in self.records if r.flow == flow and r.dropped)

    def delivered_count(self, flow: str) -> int:
        return sum(1 for r in self.records if r.flow == flow and r.egress_time is not None)

    def sent_count(self, flow: str) -> int:
        return sum(1 for r in self.records if r.flow == flow)

    def queueing_delays(self, flow: str) -> List[Tuple[float, float]]:
        pairs = [
            (r.egress_time, r.queueing_delay)
            for r in self.records
            if r.flow == flow and r.egress_time is not None and r.queueing_delay is not None
        ]
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

    def average_rate_mbps(self, flow: str, duration: float, mss_bytes: int = 1500) -> float:
        if duration <= 0:
            return 0.0
        return self.delivered_count(flow) * mss_bytes * 8.0 / duration / 1e6

    def max_egress_gap(self, flow: str, duration: float) -> float:
        edges = [0.0] + self.egress_times(flow) + [duration]
        return max(b - a for a, b in zip(edges, edges[1:]))

    def loss_rate(self, flow: str) -> float:
        sent = self.sent_count(flow)
        if sent == 0:
            return 0.0
        return self.drops(flow) / sent


def assert_monitors_match(monitor: FlowMonitor, reference: ReferenceFlowMonitor, duration: float):
    """Every derived series must agree, for every flow ever seen (and one not)."""
    for flow in FLOWS + ["never-seen"]:
        assert monitor.sent_count(flow) == reference.sent_count(flow)
        assert monitor.delivered_count(flow) == reference.delivered_count(flow)
        assert monitor.drops(flow) == reference.drops(flow)
        assert monitor.loss_rate(flow) == reference.loss_rate(flow)
        assert monitor.ingress_times(flow) == reference.ingress_times(flow)
        assert monitor.egress_times(flow) == reference.egress_times(flow)
        assert monitor.queueing_delays(flow) == reference.queueing_delays(flow)
        assert monitor.average_rate_mbps(flow, duration) == reference.average_rate_mbps(
            flow, duration
        )
        assert monitor.max_egress_gap(flow, duration) == reference.max_egress_gap(flow, duration)
        for window in (0.25, 0.1):
            for use_ingress in (False, True):
                assert monitor.windowed_rate(
                    flow, window, duration, use_ingress=use_ingress
                ) == reference.windowed_rate(flow, window, duration, use_ingress=use_ingress)


#: One synthetic packet journey: flow choice, inter-arrival gap, admission,
#: whether/when it leaves the queue and reaches the sink.
packet_events = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1),                      # flow index
        st.floats(min_value=0.0, max_value=0.5, allow_nan=False),   # ingress gap
        st.booleans(),                                              # admitted
        st.booleans(),                                              # delivered (if admitted)
        st.floats(min_value=0.0, max_value=0.3, allow_nan=False),   # queueing delay
        st.floats(min_value=0.0, max_value=0.1, allow_nan=False),   # propagation
        st.booleans(),                                              # dequeue stamp present
        st.booleans(),                                              # is_retransmit
    ),
    min_size=0,
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(events=packet_events, cross_propagation=st.floats(min_value=0.0, max_value=0.1))
def test_streaming_matches_reference_on_event_streams(events, cross_propagation):
    """Hand-driven journeys: the flow under test streamed packet by packet,
    the cross flow handed over as columns, all derived series identical."""
    monitor = FlowMonitor()
    reference = ReferenceFlowMonitor()
    now = 0.0
    pending = []
    injections, dropped, cross_served = [], 0, []
    for flow_idx, gap, admitted, delivered, qdelay, prop, stamped, retx in events:
        now += gap
        packet = Packet(0, is_retransmit=retx)
        if FLOWS[flow_idx] == CROSS_FLOW:
            # A cross packet is its admission time; its egress is its
            # departure plus the link's one propagation delay.
            injections.append(now)
            dropped += not admitted
            reference.on_ingress(packet, now, admitted, CROSS_FLOW)
            if admitted and delivered:
                packet.dequeue_time = now + qdelay
                cross_served.append((packet, now, packet.dequeue_time))
            continue
        if admitted:
            packet.enqueue_time = now
        monitor.on_ingress(packet, now, admitted)
        reference.on_ingress(packet, now, admitted)
        if admitted and delivered:
            dequeue_time = now + qdelay
            egress_time = dequeue_time + prop
            pending.append((packet, dequeue_time if stamped else None, egress_time))
    # Deliveries happen in egress-time order, as in a real simulation.
    pending.sort(key=lambda item: item[2])
    for packet, dequeue_time, egress_time in pending:
        packet.dequeue_time = dequeue_time
        monitor.on_egress(packet, egress_time)
        reference.on_egress(packet, egress_time)
    cross_served.sort(key=lambda item: item[2])
    for packet, _, departed in cross_served:
        reference.on_egress(packet, departed + cross_propagation)
    monitor.record_cross_traffic(
        injections, dropped,
        [admitted for _, admitted, _ in cross_served],
        [departed for _, _, departed in cross_served],
        cross_propagation,
    )

    duration = now + 1.0
    assert_monitors_match(monitor, reference, duration)


@settings(max_examples=10, deadline=None)
@given(
    cca=st.sampled_from(["reno", "cubic", "bbr"]),
    seed=st.integers(min_value=0, max_value=2**31),
    link_mode=st.booleans(),
    cross=st.booleans(),
    packets=st.integers(min_value=0, max_value=400),
)
def test_streaming_matches_reference_on_random_simulations(cca, seed, link_mode, cross, packets):
    """Randomized short simulations: the naive reference, fed every packet of
    both flows by the packet path, reproduces every derived series of the
    monitor of the columnar run."""

    class TeeMonitor(StreamingMonitor):
        __slots__ = ("reference",)

        def __init__(self) -> None:
            super().__init__()
            self.reference = ReferenceFlowMonitor()

        def on_ingress(self, packet, now, admitted):
            super().on_ingress(packet, now, admitted)
            self.reference.on_ingress(packet, now, admitted, flow_of(packet))

        def on_egress(self, packet, now):
            super().on_egress(packet, now)
            self.reference.on_egress(packet, now)

    rng = random_module.Random(seed)
    duration = 0.8
    times = sorted(rng.uniform(0.0, duration) for _ in range(packets))
    config = SimulationConfig(duration=duration)
    inputs = {"link_trace": times} if link_mode else {}
    if cross or not link_mode:
        inputs["cross_traffic_times"] = sorted(rng.uniform(0.0, duration) for _ in range(packets))
    result = run_simulation(cca_factory(cca), config, **inputs)
    packet_path, _ = run_packet_path(cca_factory(cca), config, TeeMonitor, **inputs)
    assert result.monitor.sent_count(CCA_FLOW) > 0
    assert_monitors_match(result.monitor, packet_path.monitor.reference, duration)


TRACE_TYPES = {"link": LinkTrace, "traffic": TrafficTrace, "loss": LossTrace}


@settings(max_examples=25, deadline=None)
@given(
    cca=st.sampled_from(sorted(CCA_FACTORIES)),
    mode=st.sampled_from(sorted(TRACE_TYPES)),
    times=st.lists(
        st.floats(min_value=0.0, max_value=0.999, allow_nan=False), max_size=300
    ),
)
def test_lite_monitor_matches_full_derived_series(cca, mode, times):
    """``record_series`` is an observation switch: a run without the per-ACK
    series has the same derived monitor series as one with them, and the
    evaluation — score, summary, behavior signature — is the same outcome."""
    times = sorted(times)
    full_config = SimulationConfig(duration=1.0)
    lite_config = full_config.with_overrides(record_series=False)
    argument = {"link": "link_trace", "traffic": "cross_traffic_times", "loss": "loss_times"}[mode]
    full = run_simulation(cca_factory(cca), full_config, **{argument: times})
    lite = run_simulation(cca_factory(cca), lite_config, **{argument: times})
    assert full.sender_stats.cwnd_series and not lite.sender_stats.cwnd_series
    for flow in (CCA_FLOW, CROSS_FLOW):
        assert full.monitor.egress_times(flow) == lite.monitor.egress_times(flow)
        assert full.monitor.ingress_times(flow) == lite.monitor.ingress_times(flow)
        assert full.monitor.queueing_delays(flow) == lite.monitor.queueing_delays(flow)
        assert full.monitor.sent_count(flow) == lite.monitor.sent_count(flow)
        assert full.monitor.delivered_count(flow) == lite.monitor.delivered_count(flow)
        assert full.monitor.loss_rate(flow) == lite.monitor.loss_rate(flow)

    trace = TRACE_TYPES[mode](timestamps=times, duration=1.0)
    score_function = make_score_function("throughput", mode)
    outcomes = [
        evaluate_job(EvaluationJob(cca_factory(cca), config, trace, score_function))
        for config in (full_config, lite_config)
    ]
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1]["behavior_signature"]["shape"]
    # ... which is why the flag is outside identity: one fingerprint, one cache key.
    assert full_config.fingerprint() == lite_config.fingerprint()
    keys = {
        job_cache_key(EvaluationJob(cca_factory(cca), config, trace, score_function))
        for config in (full_config, lite_config)
    }
    assert len(keys) == 1


def test_record_series_is_the_only_field_outside_identity():
    """Every other public ``SimulationConfig`` field still moves the
    fingerprint, and the three places a campaign's simulations are configured
    — a scenario, a stored corpus entry, ``FuzzConfig().sim`` — agree on the
    cache key for one network condition."""
    base = SimulationConfig()
    changed = {
        "duration": 4.0, "bottleneck_rate_mbps": 6.0, "propagation_delay": 0.03,
        "queue_capacity": 30, "mss_bytes": 1000, "delayed_ack": False,
        "delack_timeout": 0.1, "min_rto": 0.2, "sender_start_time": 0.5,
        "record_series": False, "max_events": None,
    }
    public = [f.name for f in dataclasses.fields(SimulationConfig) if not f.name.startswith("_")]
    assert sorted(public) == sorted(changed)
    for name in public:
        moved = base.with_overrides(**{name: changed[name]}).fingerprint() != base.fingerprint()
        assert moved == (name != "record_series"), name

    spec = CampaignSpec.from_dict({
        "name": "identity", "ccas": ["reno"], "modes": ["traffic"],
        "objectives": ["throughput"], "conditions": [{"name": "shallow", "queue_capacity": 20}],
        "budget": {"population_size": 4, "generations": 1, "duration": 1.0},
    })
    (scenario,) = spec.expand()
    trace = TrafficTrace(timestamps=[0.1, 0.2], duration=1.0)
    entry = CorpusEntry(
        trace, trace.fingerprint(), "traffic", scenario.scenario_id, "reno", "throughput",
        None, condition=scenario.condition.to_dict(),
    )
    standalone = FuzzConfig(duration=1.0).sim.with_overrides(queue_capacity=20)
    score_function = make_score_function("throughput", "traffic")
    keys = {
        job_cache_key(EvaluationJob(cca_factory("reno"), config, trace, score_function))
        for config in (scenario.sim_config(), entry.sim_config(), standalone)
    }
    assert len(keys) == 1
    assert scenario.sim_config().record_series is False
