"""Integration tests for the paper's findings (section 4).

These are the repository's acceptance tests: each one reproduces the *shape*
of a finding end to end through the public API.  They use shorter runs than
the benchmarks, so they assert the mechanism rather than the magnitude.
"""

from __future__ import annotations

import pytest

from repro.analysis import bbr_bug_evidence
from repro.attacks import (
    bbr_stall_traffic_trace,
    lose_segment_and_retransmission,
    lowrate_attack_trace,
)
from repro.netsim import CCA_FLOW, SimulationConfig, run_simulation
from repro.tcp import Bbr, Cubic, Reno


@pytest.fixture(scope="module")
def config():
    return SimulationConfig(duration=6.0)


class TestBbrStallMechanism:
    """Section 4.1 / Fig. 4c: RTO -> spurious retransmissions -> corrupted rounds."""

    @pytest.fixture(scope="class")
    def double_loss_run(self):
        return run_simulation(
            Bbr, SimulationConfig(duration=6.0), drop_filter=lose_segment_and_retransmission(2000)
        )

    def test_double_loss_forces_rto(self, double_loss_run):
        assert double_loss_run.sender_stats.rto_count >= 1

    def test_rto_produces_spurious_retransmissions(self, double_loss_run):
        assert double_loss_run.sender_stats.spurious_retransmissions > 0

    def test_probe_rounds_end_prematurely(self, double_loss_run):
        evidence = bbr_bug_evidence(double_loss_run)
        assert evidence.premature_round_ends >= 10

    def test_mechanism_evidence_far_exceeds_clean_baseline(self, config, double_loss_run):
        # A clean run may hit one RTO during the startup overshoot on this
        # shallow buffer, so the comparison is relative: the injected double
        # loss multiplies the spurious-retransmission and premature-round
        # counts well beyond the baseline.
        clean = run_simulation(Bbr, config)
        clean_evidence = bbr_bug_evidence(clean)
        attacked_evidence = bbr_bug_evidence(double_loss_run)
        assert (
            attacked_evidence.premature_round_ends
            >= clean_evidence.premature_round_ends + 10
        )
        assert not clean_evidence.stalled


class TestBbrStallTrace:
    """Section 4.1 / Fig. 4a: the adversarial traffic pattern wrecks BBR."""

    def test_throughput_collapse_exceeds_cross_traffic_share(self, config):
        trace = bbr_stall_traffic_trace(duration=config.duration)
        attacked = run_simulation(Bbr, config, cross_traffic_times=trace.timestamps)
        clean = run_simulation(Bbr, config)
        lost_throughput = clean.throughput_mbps() - attacked.throughput_mbps()
        assert attacked.throughput_mbps() < 0.6 * clean.throughput_mbps()
        # The damage far exceeds the bandwidth the cross traffic itself uses.
        assert lost_throughput > 1.2 * trace.average_rate_mbps

    def test_bandwidth_estimate_collapses(self, config):
        trace = bbr_stall_traffic_trace(duration=config.duration)
        attacked = run_simulation(Bbr, config, cross_traffic_times=trace.timestamps)
        evidence = bbr_bug_evidence(attacked)
        assert evidence.final_bandwidth_estimate_pps < 600
        # The estimate *fell* there: before the attack it had reached the
        # 1,000 packets/s of the 12 Mbps link (Fig. 4c's "collapsed from").
        assert evidence.peak_bandwidth_estimate_pps >= 3 * evidence.final_bandwidth_estimate_pps
        assert evidence.peak_bandwidth_estimate_pps == pytest.approx(1000.0, rel=0.01)


class TestCubicSlowStartBug:
    """Section 4.2: the NS3 slow-start clamp bug."""

    def test_bug_variant_jumps_past_ssthresh(self, config):
        buggy = run_simulation(
            lambda: Cubic(ns3_slow_start_bug=True),
            config,
            drop_filter=lose_segment_and_retransmission(2000),
        )
        correct = run_simulation(
            Cubic, config, drop_filter=lose_segment_and_retransmission(2000)
        )
        assert (
            buggy.cca_diagnostics["max_slow_start_jump"]
            > 1.5 * correct.cca_diagnostics["max_slow_start_jump"]
        )

    def test_bug_variant_causes_more_catastrophic_losses(self, config):
        buggy = run_simulation(
            lambda: Cubic(ns3_slow_start_bug=True),
            config,
            drop_filter=lose_segment_and_retransmission(2000),
        )
        correct = run_simulation(
            Cubic, config, drop_filter=lose_segment_and_retransmission(2000)
        )
        assert buggy.queue_drops.get(CCA_FLOW, 0) > correct.queue_drops.get(CCA_FLOW, 0)


class TestRenoLowRateAttack:
    """Section 4.3: the rediscovered low-rate (shrew) attack."""

    def test_periodic_bursts_cause_rtos_and_collapse(self, config):
        trace = lowrate_attack_trace(duration=config.duration)
        attacked = run_simulation(Reno, config, cross_traffic_times=trace.timestamps)
        clean = run_simulation(Reno, config)
        assert attacked.sender_stats.rto_count >= 1
        assert attacked.throughput_mbps() < 0.55 * clean.throughput_mbps()

    def test_attack_uses_small_fraction_of_link(self, config):
        trace = lowrate_attack_trace(duration=config.duration)
        assert trace.average_rate_mbps < 0.45 * config.bottleneck_rate_mbps


class TestProbeRttOnRtoMitigation:
    """Section 4.1 / Fig. 4d: the proposed fix reduces the damage."""

    def test_fix_delivers_at_least_as_much_under_attack(self, config):
        trace = bbr_stall_traffic_trace(duration=config.duration)
        default = run_simulation(Bbr, config, cross_traffic_times=trace.timestamps)
        fixed = run_simulation(
            lambda: Bbr(probe_rtt_on_rto=True), config, cross_traffic_times=trace.timestamps
        )
        assert fixed.delivered_segments() >= 0.95 * default.delivered_segments()

    def test_fix_does_not_hurt_clean_performance(self, config):
        default = run_simulation(Bbr, config)
        fixed = run_simulation(lambda: Bbr(probe_rtt_on_rto=True), config)
        assert fixed.throughput_mbps() > 0.9 * default.throughput_mbps()
