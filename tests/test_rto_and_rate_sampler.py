"""Unit tests for RTT/RTO estimation and delivery-rate sampling."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tcp.rate_sampler import DeliveryRateEstimator
from repro.tcp.rto import RttEstimator


class TestRttEstimator:
    def test_first_sample_initialises_srtt(self):
        estimator = RttEstimator(min_rto=1.0)
        estimator.update(0.1)
        assert estimator.srtt == pytest.approx(0.1)
        assert estimator.rttvar == pytest.approx(0.05)

    def test_smoothing_follows_rfc6298(self):
        estimator = RttEstimator(min_rto=1.0)
        estimator.update(0.1)
        estimator.update(0.2)
        assert estimator.srtt == pytest.approx(0.1 * 7 / 8 + 0.2 / 8)

    def test_min_rto_floor_applied(self):
        estimator = RttEstimator(min_rto=1.0)
        estimator.update(0.04)
        assert estimator.rto >= 1.0

    def test_small_min_rto_tracks_rtt(self):
        estimator = RttEstimator(min_rto=0.2)
        for _ in range(20):
            estimator.update(0.04)
        assert estimator.rto < 0.5

    def test_exponential_backoff_doubles(self):
        estimator = RttEstimator(min_rto=1.0)
        estimator.update(0.04)
        base = estimator.rto
        estimator.on_timeout()
        assert estimator.rto == pytest.approx(2 * base)
        estimator.on_timeout()
        assert estimator.rto == pytest.approx(4 * base)

    def test_backoff_reset_on_new_sample(self):
        estimator = RttEstimator(min_rto=1.0)
        estimator.update(0.04)
        estimator.on_timeout()
        estimator.update(0.05)
        assert estimator.backoff_count == 0

    def test_max_rto_cap(self):
        estimator = RttEstimator(min_rto=1.0, max_rto=8.0)
        estimator.update(0.04)
        for _ in range(10):
            estimator.on_timeout()
        assert estimator.rto == 8.0

    def test_initial_rto_before_samples(self):
        estimator = RttEstimator(min_rto=1.0, initial_rto=1.0)
        assert estimator.rto == 1.0

    def test_non_positive_sample_rejected(self):
        estimator = RttEstimator(min_rto=1.0)
        with pytest.raises(ValueError):
            estimator.update(0.0)

    @settings(max_examples=50, deadline=None)
    @given(samples=st.lists(st.floats(min_value=1e-4, max_value=5.0), min_size=1, max_size=50))
    def test_property_rto_bounded(self, samples):
        """Property: the RTO always stays within [min_rto, max_rto]."""
        estimator = RttEstimator(min_rto=1.0, max_rto=60.0)
        for sample in samples:
            estimator.update(sample)
            assert 1.0 <= estimator.rto <= 60.0


class TestDeliveryRateEstimator:
    def test_steady_stream_measures_true_rate(self):
        """Packets sent and delivered at 100/s measure ~100 packets/s."""
        estimator = DeliveryRateEstimator()
        interval = 0.01
        rtt = 0.05
        tx_states = []
        for i in range(50):
            send_time = i * interval
            tx_states.append(estimator.on_segment_sent(send_time, packets_in_flight=i % 5, is_retransmit=False))
            if i >= 5:
                # Deliver the packet sent 5 intervals ago (one RTT later).
                delivered_index = i - 5
                sample = estimator.on_segment_delivered(
                    delivered_index * interval + rtt, tx_states[delivered_index], newly_delivered=1
                )
        assert sample.delivery_rate == pytest.approx(100.0, rel=0.15)

    def test_delivered_counter_accumulates(self):
        estimator = DeliveryRateEstimator()
        tx = estimator.on_segment_sent(0.0, 0, False)
        estimator.on_segment_delivered(0.05, tx, newly_delivered=3)
        assert estimator.delivered == 3

    def test_retransmitted_segment_gives_no_rtt(self):
        estimator = DeliveryRateEstimator()
        tx = estimator.on_segment_sent(0.0, 0, is_retransmit=True)
        sample = estimator.on_segment_delivered(0.05, tx, newly_delivered=1)
        assert sample.rtt is None
        assert sample.is_retransmit

    def test_original_segment_gives_rtt(self):
        estimator = DeliveryRateEstimator()
        tx = estimator.on_segment_sent(0.0, 0, is_retransmit=False)
        sample = estimator.on_segment_delivered(0.05, tx, newly_delivered=1)
        assert sample.rtt == pytest.approx(0.05)

    def test_negative_delivery_count_rejected(self):
        estimator = DeliveryRateEstimator()
        tx = estimator.on_segment_sent(0.0, 0, False)
        with pytest.raises(ValueError):
            estimator.on_segment_delivered(0.1, tx, newly_delivered=-1)

    def test_post_idle_sample_uses_long_interval(self):
        """A delivery long after the previous one yields a low rate sample.

        This is the shape of the poisoned samples in the BBR stall: a small
        delivered delta over an interval dominated by the delivery gap.
        """
        estimator = DeliveryRateEstimator()
        tx0 = estimator.on_segment_sent(0.0, 0, False)
        estimator.on_segment_delivered(0.04, tx0, newly_delivered=1)
        # Retransmission sent much later, then delivered shortly afterwards;
        # prior_delivered_time still points at the old delivery.
        tx1 = estimator.on_segment_sent(1.0, 1, is_retransmit=True)
        sample = estimator.on_segment_delivered(1.02, tx1, newly_delivered=1)
        assert sample.ack_elapsed == pytest.approx(1.02 - 0.04)
        assert sample.delivery_rate < 5.0

    def test_spurious_retransmission_rewrites_prior_delivered(self):
        """Retransmitting a segment stamps it with the *current* delivered count.

        This is exactly the bookkeeping that corrupts BBR's probe-round
        clocking (section 4.1): the retransmitted copy of an old segment
        carries a fresh ``prior_delivered``.
        """
        estimator = DeliveryRateEstimator()
        original = estimator.on_segment_sent(0.0, 0, False)
        for i in range(10):
            tx = estimator.on_segment_sent(0.001 * (i + 1), i + 1, False)
            estimator.on_segment_delivered(0.05 + 0.001 * i, tx, newly_delivered=1)
        retransmission = estimator.on_segment_sent(0.2, 0, is_retransmit=True)
        assert original.prior_delivered == 0
        assert retransmission.prior_delivered == 10

    def test_first_tx_time_resets_when_pipe_empty(self):
        estimator = DeliveryRateEstimator()
        estimator.on_segment_sent(0.0, 0, False)
        tx = estimator.on_segment_sent(5.0, 0, False)
        assert tx.first_tx_time == 5.0
