"""Golden regression tests: triaging the builtin attacks preserves their
known minimal structures.

The builtin attack library encodes the paper's distilled findings; the
minimizer must rediscover (not destroy) those structures.  Each test pins
the structural invariant — e.g. the CUBIC attack staying a ≤2-burst pattern
— together with the score-retention bound.
"""

from __future__ import annotations

import pytest

from repro.attacks import builtin_attack_traces, cubic_two_burst_trace, lowrate_attack_trace
from repro.exec import Evaluator
from repro.netsim import SimulationConfig
from repro.scoring.objectives import make_score_function
from repro.tcp.cca import CCA_FACTORIES
from repro.traces import LinkTrace, validate_trace
from repro.triage import (
    MinimizeConfig,
    RobustnessConfig,
    TraceScorer,
    TriageConfig,
    minimize_trace,
    split_bursts,
    triage_trace,
)

# Spikes inside one burst are ~1 ms apart; distinct bursts are ≥40 ms apart.
# ``split_bursts`` applies the minimizer's own burst gap, so the structure the
# golden tests count is the same one the reduction stages operate on.


def scorer_for(cca: str, duration: float) -> TraceScorer:
    return TraceScorer(
        CCA_FACTORIES[cca],
        SimulationConfig(duration=duration),
        make_score_function("throughput", "traffic"),
        evaluator=Evaluator(),
    )


class TestCubicTwoBurst:
    DURATION = 4.0

    @pytest.fixture(scope="class")
    def result(self):
        trace = cubic_two_burst_trace(duration=self.DURATION)
        return trace, minimize_trace(
            trace,
            scorer_for("cubic", self.DURATION),
            MinimizeConfig(retention=0.9, max_evaluations=80),
        )

    def test_minimizes_to_at_most_two_bursts(self, result):
        trace, minimized = result
        assert len(split_bursts(minimized.minimized.timestamps)) <= 2

    def test_fewer_events_and_score_within_ten_percent(self, result):
        trace, minimized = result
        assert minimized.events_after < minimized.events_before
        assert minimized.minimized_score >= minimized.floor
        assert minimized.achieved_retention >= 0.9
        validate_trace(minimized.minimized)

    def test_cubic_is_the_most_vulnerable_cca(self, result):
        trace, minimized = result
        report = triage_trace(
            trace,
            cca="cubic",
            sim_config=SimulationConfig(duration=self.DURATION),
            config=TriageConfig(run_minimize=False, run_robustness=False),
        )
        assert report.differential.most_vulnerable.startswith("cubic")
        assert report.differential.classification in ("cca-specific", "class-specific")


class TestLowrate:
    DURATION = 3.0

    def test_periodic_burst_structure_survives(self):
        trace = lowrate_attack_trace(duration=self.DURATION)
        original_bursts = len(split_bursts(trace.timestamps))
        result = minimize_trace(
            trace,
            scorer_for("reno", self.DURATION),
            MinimizeConfig(retention=0.9, max_evaluations=60),
        )
        assert result.events_after < result.events_before
        assert result.minimized_score >= result.floor
        # The RTO-periodic burst train is the attack; it must not be merged
        # into noise or grow new bursts.
        assert 1 <= len(split_bursts(result.minimized.timestamps)) <= original_bursts


class TestBbrStallLink:
    DURATION = 3.0

    def test_link_minimization_keeps_bandwidth_budget(self):
        trace = builtin_attack_traces(self.DURATION)["bbr-stall-link"]
        assert isinstance(trace, LinkTrace)
        result = minimize_trace(
            trace,
            scorer_for("bbr", self.DURATION),
            MinimizeConfig(retention=0.9, max_evaluations=24),
        )
        assert result.events_after == result.events_before
        assert result.minimized_score >= result.floor
        validate_trace(result.minimized)


@pytest.mark.slow
class TestFullMatrixTriage:
    """Full-duration triage of the builtin traffic attacks (slow: the whole
    perturbation matrix at paper-scale durations)."""

    CASES = {
        "cubic-two-burst": "cubic",
        "bbr-stall": "bbr",
        "lowrate": "reno",
    }

    @pytest.mark.parametrize("attack", sorted(CASES))
    def test_builtin_attack_full_triage(self, attack):
        trace = builtin_attack_traces(6.0)[attack]
        report = triage_trace(
            trace,
            cca=self.CASES[attack],
            sim_config=SimulationConfig(duration=6.0),
            config=TriageConfig(
                minimize=MinimizeConfig(retention=0.9, max_evaluations=200),
                robustness=RobustnessConfig(),
            ),
        )
        assert report.minimization.minimized_score >= report.minimization.floor
        assert report.minimization.events_after <= report.minimization.events_before
        assert 0.0 <= report.robustness.robustness_score <= 1.0
        assert len(report.robustness.cells) == RobustnessConfig().cell_count()
        assert report.differential.most_vulnerable in CCA_FACTORIES
