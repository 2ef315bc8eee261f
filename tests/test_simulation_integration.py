"""End-to-end simulation tests: the dumbbell topology with each CCA."""

from __future__ import annotations

import math

import pytest

from repro.netsim import (
    CCA_FLOW,
    CROSS_FLOW,
    SimulationConfig,
    SimulationTruncated,
    run_simulation,
)
from repro.tcp import Bbr, Cubic, Reno


class TestCleanLink:
    @pytest.mark.parametrize("factory", [Reno, Cubic, Bbr], ids=["reno", "cubic", "bbr"])
    def test_high_utilization_on_clean_link(self, factory):
        result = run_simulation(factory, SimulationConfig(duration=3.0))
        assert result.utilization() > 0.85
        assert result.sender_stats.rto_count <= 1

    def test_delivered_never_exceeds_sent(self):
        result = run_simulation(Reno, SimulationConfig(duration=2.0))
        assert result.delivered_segments() <= result.segments_sent()

    def test_throughput_capped_by_link_rate(self):
        result = run_simulation(Reno, SimulationConfig(duration=2.0, bottleneck_rate_mbps=6.0))
        assert result.throughput_mbps() <= 6.0 + 1e-6

    def test_deterministic_across_runs(self):
        first = run_simulation(Reno, SimulationConfig(duration=2.0))
        second = run_simulation(Reno, SimulationConfig(duration=2.0))
        assert first.summary() == second.summary()

    def test_queueing_delay_bounded_by_buffer(self):
        config = SimulationConfig(duration=2.0, queue_capacity=60)
        result = run_simulation(Reno, config)
        max_delay = max(d for _, d in result.queueing_delays())
        # 60 packets at 1000 packets/s plus one service time.
        assert max_delay <= 0.062


class TestTraceDrivenLink:
    def test_uniform_trace_matches_fixed_link(self):
        duration = 2.0
        opportunities = [i * 0.001 for i in range(int(duration * 1000))]
        trace_result = run_simulation(
            Reno, SimulationConfig(duration=duration), link_trace=opportunities
        )
        fixed_result = run_simulation(Reno, SimulationConfig(duration=duration))
        assert trace_result.throughput_mbps() == pytest.approx(
            fixed_result.throughput_mbps(), rel=0.05
        )

    def test_half_rate_trace_halves_throughput(self):
        duration = 2.0
        opportunities = [i * 0.002 for i in range(int(duration * 500))]
        result = run_simulation(
            Reno, SimulationConfig(duration=duration), link_trace=opportunities
        )
        assert result.throughput_mbps() == pytest.approx(6.0, rel=0.1)

    def test_link_outage_stalls_delivery(self):
        duration = 2.0
        opportunities = [i * 0.001 for i in range(1000) if not 0.5 <= i * 0.001 < 1.0]
        result = run_simulation(
            Reno, SimulationConfig(duration=duration), link_trace=opportunities
        )
        egress = result.monitor.egress_times(CCA_FLOW)
        assert not any(0.55 < t < 1.0 for t in egress)


class TestCrossTraffic:
    def test_cross_traffic_reduces_flow_throughput(self):
        config = SimulationConfig(duration=2.0)
        clean = run_simulation(Reno, config)
        cross = [0.5 + i * 0.002 for i in range(500)]  # 500 packets over 1 s
        congested = run_simulation(Reno, config, cross_traffic_times=cross)
        assert congested.throughput_mbps() < clean.throughput_mbps()

    def test_cross_traffic_accounted_at_sink(self):
        config = SimulationConfig(duration=2.0)
        cross = [1.0 + i * 0.01 for i in range(50)]
        result = run_simulation(Reno, config, cross_traffic_times=cross)
        assert result.cross_sent == 50
        assert result.cross_delivered + result.queue_drops.get(CROSS_FLOW, 0) == 50

    def test_saturating_cross_traffic_starves_flow(self):
        config = SimulationConfig(duration=2.0)
        cross = [0.2 + i * 0.0008 for i in range(2000)]  # 1250 packets/s > link rate
        result = run_simulation(Reno, config, cross_traffic_times=cross)
        assert result.throughput_mbps() < 4.0


class TestForcedLosses:
    def test_loss_times_drop_packets(self):
        config = SimulationConfig(duration=2.0)
        result = run_simulation(Reno, config, loss_times=[0.5, 0.7, 0.9])
        assert result.forced_losses == 3
        assert result.sender_stats.retransmissions >= 3

    def test_drop_filter_invoked(self):
        from repro.attacks import TargetedLoss

        config = SimulationConfig(duration=2.0)
        loss = TargetedLoss([(100, 1)])
        result = run_simulation(Reno, config, drop_filter=loss)
        assert loss.drops_performed == 1
        assert result.forced_losses == 1


class TestResultSummaries:
    def test_summary_fields(self):
        result = run_simulation(Reno, SimulationConfig(duration=1.0))
        summary = result.summary()
        for key in ["cca", "throughput_mbps", "utilization", "retransmissions", "rto_count"]:
            assert key in summary

    def test_windowed_throughput_covers_duration(self):
        result = run_simulation(Reno, SimulationConfig(duration=2.0))
        series = result.windowed_throughput(window=0.5)
        assert len(series) == 4
        assert series[0][0] == 0.0

    def test_event_cap_raises_instead_of_reporting_a_partial_run(self):
        # Capped at 3,000 events this run used to come back as 4.46 Mbps with a
        # 1.81 s egress gap (11.70 Mbps / 0.033 s uncapped): the clock was
        # advanced to `duration` over time that was never simulated.
        full = run_simulation(Reno, SimulationConfig(duration=3.0))
        assert full.events_executed > 3000
        with pytest.raises(SimulationTruncated) as caught:
            run_simulation(Reno, SimulationConfig(duration=3.0, max_events=3000))
        assert caught.value.events_executed == caught.value.max_events == 3000
        assert 0.0 < caught.value.sim_time < 3.0
        # A cap the run exactly fits in is not a truncation.
        exact = run_simulation(
            Reno, SimulationConfig(duration=3.0, max_events=full.events_executed)
        )
        assert exact.summary() == full.summary()

    def test_config_overrides(self):
        config = SimulationConfig(duration=1.0).with_overrides(queue_capacity=10)
        assert config.queue_capacity == 10
        assert config.duration == 1.0


class TestConfigRanges:
    @pytest.mark.parametrize("field, value, message", [
        ("duration", 0.0, "duration must be positive"),
        ("duration", -1.0, "duration must be positive"),
        ("bottleneck_rate_mbps", 0.0, "bottleneck_rate_mbps must be positive"),
        ("queue_capacity", 0, "queue_capacity must be at least 1"),
        ("propagation_delay", -0.01, "propagation_delay must be non-negative"),
        # Non-finite values used to pass: NaN fails no ``< 0`` test, and
        # ``not inf > 0`` is false.  A NaN delay delivered nothing at all.
        ("duration", math.inf, "duration must be positive and finite"),
        ("duration", math.nan, "duration must be positive and finite"),
        ("bottleneck_rate_mbps", math.inf, "bottleneck_rate_mbps must be positive and finite"),
        ("propagation_delay", math.nan, "propagation_delay must be non-negative and finite"),
        ("propagation_delay", math.inf, "propagation_delay must be non-negative and finite"),
    ])
    def test_out_of_range_settings_are_refused(self, field, value, message):
        # A run used to report zeros (duration 0), negative stalls
        # (duration -1) or crash inside the link/queue (rate or queue 0).
        with pytest.raises(ValueError, match=message):
            SimulationConfig(**{field: value})
        with pytest.raises(ValueError, match=message):
            SimulationConfig().with_overrides(**{field: value})

    def test_edge_values_are_allowed_and_identity_is_unchanged(self):
        SimulationConfig(duration=1e-3, queue_capacity=1, propagation_delay=0.0)
        assert SimulationConfig().fingerprint() == "12ba27139c11aa03f67e39acbaa23c1d"


class TestInputTimes:
    """Every time a run is given must be finite and non-negative: a NaN at
    the head of a lane never wins the run loop's comparison, so it used to
    block every later event of that input without a word."""

    CONFIG = SimulationConfig(duration=0.5)

    def test_nan_cross_traffic_time_rejected(self):
        # Used to report cross_sent == 1 (3 without the NaN).
        with pytest.raises(ValueError, match="cross-traffic injection times"):
            run_simulation(Reno, self.CONFIG, cross_traffic_times=[0.1, math.nan, 0.2, 0.3])

    def test_nan_link_trace_time_rejected(self):
        # A leading NaN used to serve 0 packets.
        with pytest.raises(ValueError, match="transmission opportunities"):
            run_simulation(Reno, self.CONFIG, link_trace=[math.nan, 0.1, 0.2])

    def test_nan_loss_time_rejected(self):
        # Used to force 0 losses.
        with pytest.raises(ValueError, match="loss times"):
            run_simulation(Reno, self.CONFIG, loss_times=[math.nan, 0.2])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, -0.1])
    def test_other_out_of_range_times_rejected(self, bad):
        for keyword in ("cross_traffic_times", "link_trace", "loss_times"):
            with pytest.raises(ValueError, match="must be finite and non-negative"):
                run_simulation(Reno, self.CONFIG, **{keyword: [0.1, bad]})
