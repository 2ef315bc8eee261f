"""Unit tests for BBR's estimators, state machine and the RTO-interaction bug hooks."""

from __future__ import annotations

import pytest

from repro.tcp.cca.base import AckEvent
from repro.tcp.cca.bbr import Bbr
from repro.tcp.rate_sampler import RateSample


def rate_sample(
    rate: float,
    prior_delivered: int,
    delivered: int = 2,
    rtt: float = 0.04,
    is_retransmit: bool = False,
    ack_time: float = 0.0,
) -> RateSample:
    return RateSample(
        delivered=delivered,
        prior_delivered=prior_delivered,
        interval=delivered / rate if rate > 0 else 1.0,
        delivery_rate=rate,
        rtt=rtt,
        is_retransmit=is_retransmit,
        ack_time=ack_time,
    )


def ack_event(
    now: float,
    delivered: int,
    sample: RateSample,
    in_flight: int = 20,
    newly_delivered: int = 2,
    in_recovery: bool = False,
) -> AckEvent:
    return AckEvent(
        now=now,
        newly_acked=newly_delivered,
        newly_sacked=0,
        newly_delivered=newly_delivered,
        cumulative_ack=delivered,
        delivered=delivered,
        in_flight=in_flight,
        rate_sample=sample,
        rtt=sample.rtt,
        in_recovery=in_recovery,
        in_rto_recovery=in_recovery,
    )


def feed_rounds(bbr: Bbr, rate: float, rounds: int, start_time: float = 0.0, start_delivered: int = 0):
    """Feed ``rounds`` probing rounds of rate samples at ``rate`` packets/s."""
    delivered = start_delivered
    now = start_time
    for _ in range(rounds):
        prior = delivered
        delivered += 10
        now += 0.04
        bbr.on_ack(ack_event(now, delivered, rate_sample(rate, prior, rtt=0.04)))
    return now, delivered


class TestBandwidthFilter:
    def test_estimate_tracks_max_of_recent_rounds(self):
        bbr = Bbr()
        feed_rounds(bbr, rate=1000.0, rounds=5)
        assert bbr.btlbw == pytest.approx(1000.0)

    def test_old_samples_expire_after_filter_window(self):
        bbr = Bbr()
        now, delivered = feed_rounds(bbr, rate=1000.0, rounds=3)
        feed_rounds(bbr, rate=100.0, rounds=Bbr.BTLBW_FILTER_ROUNDS + 2, start_time=now, start_delivered=delivered)
        assert bbr.btlbw == pytest.approx(100.0)
        # The run's peak outlives the filter window: it is what Fig. 4c's
        # evidence reports the estimate collapsed *from*.
        diag = bbr.diagnostics()
        assert (diag["peak_btlbw"], diag["btlbw"]) == (pytest.approx(1000.0), pytest.approx(100.0))

    def test_higher_sample_immediately_raises_estimate(self):
        bbr = Bbr()
        feed_rounds(bbr, rate=500.0, rounds=3)
        now, delivered = feed_rounds(bbr, rate=1200.0, rounds=1, start_time=0.2, start_delivered=30)
        assert bbr.btlbw == pytest.approx(1200.0)


class TestRoundAccounting:
    def test_round_advances_when_prior_delivered_reaches_marker(self):
        bbr = Bbr()
        feed_rounds(bbr, rate=1000.0, rounds=4)
        assert bbr.round_count == 4

    def test_retransmit_anchored_round_end_counted_as_premature(self):
        bbr = Bbr()
        now, delivered = feed_rounds(bbr, rate=1000.0, rounds=3)
        sample = rate_sample(50.0, prior_delivered=delivered, is_retransmit=True)
        bbr.on_ack(ack_event(now + 0.04, delivered + 1, sample, newly_delivered=1))
        assert bbr.premature_round_ends == 1

    def test_rounds_do_not_advance_without_reaching_marker(self):
        bbr = Bbr()
        bbr.on_ack(ack_event(0.04, 10, rate_sample(1000.0, prior_delivered=0)))
        rounds_after_first = bbr.round_count
        # prior_delivered below the marker: still the same round.
        bbr.on_ack(ack_event(0.05, 12, rate_sample(1000.0, prior_delivered=5)))
        assert bbr.round_count == rounds_after_first


class TestStateMachine:
    def test_startup_exits_to_drain_then_probe_bw_when_bandwidth_plateaus(self):
        bbr = Bbr()
        now, delivered = feed_rounds(bbr, rate=1000.0, rounds=3)
        # Three rounds without 25 % growth => pipe considered full.
        now, delivered = feed_rounds(bbr, rate=1010.0, rounds=4, start_time=now, start_delivered=delivered)
        assert bbr.filled_pipe
        # With a small in-flight the state machine proceeds to PROBE_BW.
        bbr.on_ack(ack_event(now + 0.04, delivered + 2, rate_sample(1010.0, delivered), in_flight=5))
        assert bbr.state in (Bbr.DRAIN, Bbr.PROBE_BW)

    def test_startup_gain_is_high(self):
        bbr = Bbr()
        assert bbr.state == Bbr.STARTUP
        assert bbr.pacing_gain == pytest.approx(Bbr.HIGH_GAIN)

    def test_probe_bw_cycles_through_gain_values(self):
        bbr = Bbr()
        now, delivered = feed_rounds(bbr, rate=1000.0, rounds=8)
        seen_gains = set()
        for _ in range(30):
            prior = delivered
            delivered += 10
            now += 0.05
            bbr.on_ack(ack_event(now, delivered, rate_sample(1000.0, prior), in_flight=10))
            if bbr.state == Bbr.PROBE_BW:
                seen_gains.add(bbr.pacing_gain)
        assert 1.25 in seen_gains
        assert 0.75 in seen_gains

    def test_cwnd_targets_two_bdp_in_probe_bw(self):
        bbr = Bbr()
        now, delivered = feed_rounds(bbr, rate=1000.0, rounds=20)
        # BDP = 1000 pkt/s * 0.04 s = 40 segments; cwnd gain 2 => ~80.
        assert bbr.bdp == pytest.approx(40.0, rel=0.1)
        assert bbr.cwnd <= 2.5 * bbr.bdp + 1

    def test_min_cwnd_floor(self):
        bbr = Bbr()
        assert bbr.cwnd >= Bbr.MIN_CWND


class TestPacing:
    def test_pacing_rate_follows_gain_times_bandwidth(self):
        bbr = Bbr()
        feed_rounds(bbr, rate=1000.0, rounds=5)
        assert bbr.pacing_rate == pytest.approx(bbr.pacing_gain * 1000.0, rel=0.01)

    def test_pacing_floor_prevents_deadlock(self):
        bbr = Bbr(min_pacing_rate=0.5)
        assert bbr.pacing_rate >= 0.5


class TestRtoBehaviour:
    def test_default_rto_collapses_window_and_enters_loss_recovery(self):
        bbr = Bbr()
        feed_rounds(bbr, rate=1000.0, rounds=5)
        bbr.on_rto(now=1.0, in_flight=40)
        assert bbr.in_loss_recovery
        assert bbr.cwnd == pytest.approx(Bbr.MIN_CWND)
        assert bbr.state != Bbr.PROBE_RTT

    def test_fix_enters_probe_rtt_on_rto(self):
        """The paper's mitigation: ProbeRTT on RTO caps the window at 4 segments."""
        bbr = Bbr(probe_rtt_on_rto=True)
        feed_rounds(bbr, rate=1000.0, rounds=5)
        bbr.on_rto(now=1.0, in_flight=40)
        assert bbr.state == Bbr.PROBE_RTT
        assert bbr.cwnd == pytest.approx(Bbr.MIN_CWND)

    def test_default_packet_conservation_grows_window_with_acks(self):
        """Default BBR rebuilds its window from returning ACKs after an RTO,
        which is what lets it race ahead of in-flight SACKs and retransmit
        spuriously (section 4.1)."""
        bbr = Bbr()
        now, delivered = feed_rounds(bbr, rate=1000.0, rounds=5)
        bbr.on_rto(now=now, in_flight=40)
        bbr.on_ack(
            ack_event(now + 0.01, delivered + 20, rate_sample(1000.0, delivered),
                      in_flight=10, newly_delivered=20, in_recovery=True)
        )
        assert bbr.cwnd >= 30

    def test_fix_keeps_window_pinned_during_probe_rtt(self):
        bbr = Bbr(probe_rtt_on_rto=True)
        now, delivered = feed_rounds(bbr, rate=1000.0, rounds=5)
        bbr.on_rto(now=now, in_flight=40)
        bbr.on_ack(
            ack_event(now + 0.01, delivered + 20, rate_sample(1000.0, delivered),
                      in_flight=10, newly_delivered=20, in_recovery=True)
        )
        assert bbr.cwnd == pytest.approx(Bbr.MIN_CWND)

    def test_recovery_exit_restores_target_window(self):
        bbr = Bbr()
        now, delivered = feed_rounds(bbr, rate=1000.0, rounds=5)
        bbr.on_rto(now=now, in_flight=40)
        bbr.on_recovery_exit(now=now + 0.5)
        assert not bbr.in_loss_recovery
        assert bbr.cwnd > Bbr.MIN_CWND


class TestRtPropFilter:
    def test_min_rtt_tracked(self):
        bbr = Bbr()
        bbr.on_ack(ack_event(0.04, 2, rate_sample(1000.0, 0, rtt=0.05)))
        bbr.on_ack(ack_event(0.08, 4, rate_sample(1000.0, 2, rtt=0.04)))
        bbr.on_ack(ack_event(0.12, 6, rate_sample(1000.0, 4, rtt=0.06)))
        assert bbr.rtprop == pytest.approx(0.04)

    def test_probe_rtt_entered_when_estimate_stale(self):
        bbr = Bbr()
        bbr.on_ack(ack_event(0.04, 2, rate_sample(1000.0, 0, rtt=0.04)))
        # Keep feeding higher RTTs for longer than the 10 s filter window.
        now, delivered = 0.04, 2
        while now < 11.0:
            prior = delivered
            delivered += 2
            now += 0.5
            bbr.on_ack(ack_event(now, delivered, rate_sample(1000.0, prior, rtt=0.08)))
        assert any(key.endswith(">" + Bbr.PROBE_RTT) for key in bbr.state_transition_counts)
