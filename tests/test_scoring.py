"""Tests for performance scores, trace scores and windowed helpers."""

from __future__ import annotations

import pytest

from repro.netsim.simulation import SimulationConfig, run_simulation
from repro.scoring.base import Score, ScoreFunction
from repro.scoring.performance import HighDelayScore, HighLossScore, LowUtilizationScore
from repro.scoring.trace_score import MinimalTrafficScore
from repro.scoring.windowed import bottom_fraction_mean, percentile, top_fraction_mean
from repro.tcp.cca.reno import Reno
from repro.traces.trace import LinkTrace, TrafficTrace


@pytest.fixture(scope="module")
def clean_result():
    """One Reno run over a clean 12 Mbps link, shared across scoring tests."""
    return run_simulation(Reno, SimulationConfig(duration=2.0))


@pytest.fixture(scope="module")
def congested_result():
    """Reno competing with a near-saturating burst of cross traffic."""
    cross = [1.0 + i * 0.001 for i in range(600)]
    return run_simulation(Reno, SimulationConfig(duration=2.0), cross_traffic_times=cross)


class TestWindowedHelpers:
    def test_bottom_fraction_mean(self):
        assert bottom_fraction_mean([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 0.2) == pytest.approx(1.5)

    def test_bottom_fraction_mean_single_value_floor(self):
        assert bottom_fraction_mean([5.0, 9.0], 0.1) == 5.0

    def test_bottom_fraction_invalid(self):
        with pytest.raises(ValueError):
            bottom_fraction_mean([1.0], 0.0)

    def test_top_fraction_mean(self):
        assert top_fraction_mean([1, 2, 3, 4], 0.5) == pytest.approx(3.5)

    def test_percentile_interpolates(self):
        assert percentile([0.0, 10.0], 50.0) == pytest.approx(5.0)
        assert percentile([1.0, 2.0, 3.0], 0.0) == 1.0
        assert percentile([1.0, 2.0, 3.0], 100.0) == 3.0

    def test_percentile_empty(self):
        assert percentile([], 50.0) == 0.0


class TestPerformanceScores:
    def test_low_utilization_score_is_negated_throughput(self, clean_result):
        score = LowUtilizationScore(window=0.25)(clean_result)
        assert score < 0
        assert abs(score) <= 12.5

    def test_low_utilization_prefers_congested_run(self, clean_result, congested_result):
        score = LowUtilizationScore(window=0.25)
        assert score(congested_result) > score(clean_result)

    def test_high_delay_score_positive_under_congestion(self, congested_result):
        assert HighDelayScore(percentile_rank=50)(congested_result) > 0

    def test_high_delay_prefers_congested_run(self, clean_result, congested_result):
        score = HighDelayScore(percentile_rank=50)
        assert score(congested_result) >= score(clean_result)

    def test_loss_score_bounded(self, congested_result):
        value = HighLossScore()(congested_result)
        assert 0.0 <= value <= 1.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LowUtilizationScore(window=0.0)
        with pytest.raises(ValueError):
            HighDelayScore(percentile_rank=120)


class TestTraceScores:
    def test_minimal_traffic_prefers_fewer_packets(self):
        small = TrafficTrace(timestamps=[0.1] * 5, duration=2.0, max_packets=100)
        large = TrafficTrace(timestamps=[0.1] * 50, duration=2.0, max_packets=100)
        score = MinimalTrafficScore()
        assert score(small) > score(large)

    def test_minimal_traffic_penalises_drops(self, congested_result):
        trace = TrafficTrace(timestamps=[0.1] * 10, duration=2.0, max_packets=100)
        with_drops = MinimalTrafficScore()(trace, congested_result)
        without = MinimalTrafficScore()(trace, None)
        assert with_drops <= without

    def test_minimal_traffic_ignores_link_traces(self):
        link = LinkTrace(timestamps=[0.1] * 100, duration=2.0)
        assert MinimalTrafficScore()(link) == 0.0


class TestScoreFunction:
    def test_combines_components(self, clean_result):
        trace = TrafficTrace(timestamps=[0.1] * 10, duration=2.0, max_packets=100)
        function = ScoreFunction(
            performance=LowUtilizationScore(),
            trace=MinimalTrafficScore(),
            trace_weight=0.001,
        )
        score = function(clean_result, trace)
        assert isinstance(score, Score)
        assert score.total == pytest.approx(score.performance + score.trace)
        assert score.trace == pytest.approx(-0.01)

    def test_float_conversion(self):
        assert float(Score(total=2.5, performance=2.0, trace=0.5)) == 2.5
