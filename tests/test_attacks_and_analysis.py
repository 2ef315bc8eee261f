"""Tests for the attack-trace builders, fault injection and the analysis helpers."""

from __future__ import annotations

import pytest

from repro.analysis import (
    BbrBugEvidence,
    ascii_chart,
    bbr_bug_evidence,
    compute_metrics,
    describe_bug_timeline,
    format_table,
    max_queue_depth,
    queue_depth_series,
)
from repro.attacks import (
    TargetedLoss,
    attack_rate_mbps,
    bbr_delay_attack_trace,
    bbr_double_loss_burst_trace,
    bbr_stall_link_trace,
    bbr_stall_traffic_trace,
    lose_segment_and_retransmission,
    lowrate_attack_times,
    lowrate_attack_trace,
)
from repro.netsim import Packet, SimulationConfig, run_simulation
from repro.tcp import Reno
from repro.traces import LinkTrace, TrafficTrace, is_valid_trace


class TestLowRateAttackTrace:
    def test_bursts_repeat_at_period(self):
        times = lowrate_attack_times(duration=5.0, period=1.0, burst_packets=10, burst_duration=0.05, start=0.5)
        bursts_seconds = {int(t) for t in times}
        assert bursts_seconds == {0, 1, 2, 3, 4}

    def test_trace_is_valid_and_low_rate(self):
        trace = lowrate_attack_trace(duration=6.0)
        assert is_valid_trace(trace)
        assert attack_rate_mbps(trace) < 6.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            lowrate_attack_times(duration=5.0, period=0.0)
        with pytest.raises(ValueError):
            lowrate_attack_times(duration=5.0, burst_packets=0)


class TestBbrAttackTraces:
    def test_stall_trace_structure(self):
        trace = bbr_stall_traffic_trace(duration=6.0)
        assert isinstance(trace, TrafficTrace)
        assert is_valid_trace(trace)
        assert trace.average_rate_mbps < 12.0

    def test_double_loss_trace_has_three_spikes(self):
        trace = bbr_double_loss_burst_trace(duration=6.0)
        counts = dict(trace.windowed_counts(0.5))
        spike_windows = [start for start, count in counts.items() if count > 50]
        assert len(spike_windows) >= 2

    def test_link_trace_preserves_average_rate(self):
        trace = bbr_stall_link_trace(duration=6.0, average_rate_mbps=12.0)
        assert isinstance(trace, LinkTrace)
        assert trace.average_rate_mbps == pytest.approx(12.0, rel=0.02)

    def test_delay_trace_prefill_before_reinforcement(self):
        trace = bbr_delay_attack_trace(duration=5.0)
        assert trace.timestamps[0] < 0.1
        assert any(t > 0.3 for t in trace.timestamps)


class TestTargetedLoss:
    def test_drops_requested_transmissions_only(self):
        loss = TargetedLoss([(5, 1), (5, 2)])
        first = Packet(seq=5)
        assert loss(first, 0.1) is True
        second = Packet(seq=5)
        assert loss(second, 0.2) is True
        third = Packet(seq=5)
        assert loss(third, 0.3) is False
        other = Packet(seq=6)
        assert loss(other, 0.4) is False
        assert loss.drops_performed == 2

    def test_seed_event_loses_a_segment_and_its_retransmission(self):
        loss = lose_segment_and_retransmission(3)
        assert [loss(Packet(seq=3), 0.0) for _ in range(3)] == [True, True, False]


class TestAnalysisHelpers:
    @pytest.fixture(scope="class")
    def result(self):
        return run_simulation(Reno, SimulationConfig(duration=2.0))

    def test_compute_metrics_fields(self, result):
        metrics = compute_metrics(result)
        assert metrics.throughput_mbps > 0
        assert 0 <= metrics.utilization <= 1.05
        assert metrics.segments_delivered > 0
        assert isinstance(metrics.as_dict(), dict)

    def test_queue_depth_series_nonempty(self, result):
        series = queue_depth_series(result)
        assert series
        assert max_queue_depth(result) <= result.config.queue_capacity

    def test_bug_evidence_on_clean_run(self, result):
        evidence = bbr_bug_evidence(result)
        assert isinstance(evidence, BbrBugEvidence)
        # Reno keeps no bandwidth estimate: both ends of the "collapse" are 0.
        assert evidence.peak_bandwidth_estimate_pps == evidence.final_bandwidth_estimate_pps == 0
        assert "spurious" in describe_bug_timeline(evidence)

    def test_format_table_and_chart(self):
        table = format_table([{"a": 1, "b": 2.5}, {"a": 3, "b": 4.0}])
        assert "a" in table and "2.500" in table
        chart = ascii_chart([(0.0, 1.0), (1.0, 2.0)], width=20, height=5, title="demo")
        assert "demo" in chart
