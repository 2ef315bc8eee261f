"""Property tests (hypothesis) for the minimizer's invariants.

The minimizer is exercised against cheap *structural* scorers instead of the
simulator, so hypothesis can hammer hundreds of generated traces: the
invariants under test — validity, monotone length, the retention bound,
determinism — are properties of the reduction logic, not of any particular
CCA's behaviour.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces import LinkTrace, LossTrace, TrafficTrace, validate_trace
from repro.triage import MinimizeConfig, minimize_trace, retention_floor

DURATION = 1.0


class WindowScorer:
    """Score = packets inside [0.4, 0.6): an 'attack' needs events there.

    Mirrors the real fitness shape (more of the damaging structure scores
    higher; everything else is removable) while staying trivially cheap.
    """

    def __init__(self):
        self.calls = 0

    def scores(self, traces):
        self.calls += len(traces)
        return [
            float(sum(1 for t in trace.timestamps if 0.4 <= t < 0.6))
            for trace in traces
        ]


class NegativeScorer:
    """Score = -(packets outside the window): tests negative-score retention."""

    def scores(self, traces):
        return [
            -float(sum(1 for t in trace.timestamps if not 0.4 <= t < 0.6))
            for trace in traces
        ]


timestamps_strategy = st.lists(
    st.floats(min_value=0.0, max_value=DURATION, allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=40,
)


@st.composite
def traffic_traces(draw):
    times = draw(timestamps_strategy)
    return TrafficTrace(timestamps=times, duration=DURATION, max_packets=max(len(times), 1))


@st.composite
def loss_traces(draw):
    times = draw(st.lists(
        st.floats(min_value=0.0, max_value=DURATION, allow_nan=False, allow_infinity=False),
        min_size=0,
        max_size=15,
    ))
    return LossTrace(timestamps=times, duration=DURATION)


@st.composite
def link_traces(draw):
    times = draw(st.lists(
        st.floats(min_value=0.0, max_value=DURATION, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=40,
    ))
    return LinkTrace(timestamps=times, duration=DURATION)


CONFIG = MinimizeConfig(retention=0.9, max_evaluations=200)


@settings(max_examples=60, deadline=None)
@given(trace=st.one_of(traffic_traces(), loss_traces()))
def test_minimized_trace_is_valid_and_never_longer(trace):
    result = minimize_trace(trace, WindowScorer(), CONFIG)
    validate_trace(result.minimized)
    assert result.events_after <= result.events_before
    assert type(result.minimized) is type(trace)
    assert result.minimized.duration == trace.duration


@settings(max_examples=60, deadline=None)
@given(trace=traffic_traces())
def test_retention_bound_holds(trace):
    scorer = WindowScorer()
    result = minimize_trace(trace, scorer, CONFIG)
    floor = retention_floor(result.baseline_score, CONFIG.retention)
    assert result.minimized_score >= floor
    # The recorded score is the trace's actual score, re-computable.
    assert scorer.scores([result.minimized])[0] == result.minimized_score


@settings(max_examples=40, deadline=None)
@given(trace=traffic_traces())
def test_retention_bound_holds_for_negative_scores(trace):
    scorer = NegativeScorer()
    result = minimize_trace(trace, scorer, CONFIG)
    assert result.minimized_score >= retention_floor(
        result.baseline_score, CONFIG.retention
    )


@settings(max_examples=40, deadline=None)
@given(trace=st.one_of(traffic_traces(), loss_traces()))
def test_minimization_is_deterministic(trace):
    first = minimize_trace(trace, WindowScorer(), CONFIG)
    second = minimize_trace(trace, WindowScorer(), CONFIG)
    assert first.minimized.fingerprint() == second.minimized.fingerprint()
    assert first.minimized_score == second.minimized_score
    assert first.evaluations == second.evaluations
    assert first.stages == second.stages


@settings(max_examples=40, deadline=None)
@given(trace=traffic_traces())
def test_traffic_budget_preserved(trace):
    result = minimize_trace(trace, WindowScorer(), CONFIG)
    assert isinstance(result.minimized, TrafficTrace)
    assert result.minimized.max_packets == trace.max_packets
    assert result.minimized.packet_count <= result.minimized.max_packets


@settings(max_examples=40, deadline=None)
@given(trace=link_traces())
def test_link_traces_keep_their_packet_budget(trace):
    # Link minimization is structural: the service curve's packet count (its
    # average bandwidth) is an invariant of the search and of triage.
    result = minimize_trace(trace, WindowScorer(), CONFIG)
    validate_trace(result.minimized)
    assert result.events_after == result.events_before


@settings(max_examples=30, deadline=None)
@given(trace=traffic_traces(), budget=st.integers(min_value=1, max_value=30))
def test_evaluation_budget_is_a_hard_cap(trace, budget):
    scorer = WindowScorer()
    config = MinimizeConfig(retention=0.9, max_evaluations=budget)
    result = minimize_trace(trace, scorer, config)
    assert result.evaluations <= budget
    assert scorer.calls <= budget


@settings(max_examples=40, deadline=None)
@given(trace=traffic_traces())
def test_fully_removable_structure_minimizes_aggressively(trace):
    # With a scorer that values nothing, everything is removable: the
    # minimizer must shrink any non-trivial trace.
    class ZeroScorer:
        def scores(self, traces):
            return [0.0 for _ in traces]

    result = minimize_trace(trace, ZeroScorer(), CONFIG)
    if trace.packet_count > 0:
        assert result.events_after < trace.packet_count
