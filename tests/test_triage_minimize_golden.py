"""Byte-for-byte golden of the minimizer's reduction path.

``tests/golden_minimize.json`` pins, for fixed traffic, loss, link and untyped
traces under the cheap structural scorers of ``test_triage_properties``, the
minimized fingerprint, score, evaluations charged and per-stage log.  Between
them the cases make every stage accept at least once, and cover segment
removal's chunk refinement, segment merging's halving, the single-event
stage's size gate and a run that spends its whole evaluation budget.  A
refactor of the reduction loop must leave every row unchanged.

Regenerate (only for a deliberate change of the reduction)::

    PYTHONPATH=src python tests/test_triage_minimize_golden.py
"""

from __future__ import annotations

import json
import os

import pytest

from repro.traces.trace import LinkTrace, LossTrace, PacketTrace, TrafficTrace
from repro.triage import minimize
from repro.triage.minimize import SINGLE_EVENT_LIMIT, MinimizeConfig, minimize_trace
from test_triage_properties import NegativeScorer, WindowScorer

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_minimize.json")


def _grid(start: float, stop: float, step: float) -> list:
    return [start + i * step for i in range(int(round((stop - start) / step)) + 1)]


def _one_burst() -> TrafficTrace:
    return TrafficTrace(_grid(0.0, 1.0, 0.02), 1.0)


#: name -> (trace, scorer class, max_evaluations)
CASES = {
    # segment removal over bursts, thinning, burst coalescing
    "traffic-bursts": (
        TrafficTrace(
            [0.1, 0.2, 0.41, 0.412, 0.417, 0.42, 0.46, 0.461, 0.465, 0.5, 0.52, 0.523,
             0.56, 0.57, 0.575, 0.58, 0.8],
            1.0,
            max_packets=40,
        ),
        WindowScorer,
        400,
    ),
    # a straddling burst, many refinements, a single-event pass that fails
    "traffic-straddle": (
        TrafficTrace(
            _grid(0.30, 0.428, 0.004) + _grid(0.45, 0.59, 0.0025)
            + _grid(0.75, 0.8, 0.01) + [0.1, 0.95],
            1.0,
        ),
        WindowScorer,
        400,
    ),
    # one burst: chunk removal with the granularity refined
    "traffic-one-burst": (_one_burst(), WindowScorer, 400),
    # the same input with the budget spent mid-stage
    "traffic-one-burst-budget": (_one_burst(), WindowScorer, 15),
    # everything removable: the single-event stage takes the last event
    "untyped-negative": (
        PacketTrace(_grid(0.05, 0.2, 0.01) + _grid(0.45, 0.5, 0.01) + _grid(0.8, 0.9, 0.02), 1.0),
        NegativeScorer,
        400,
    ),
    # ends above the single-event stage's size gate
    "loss-gate": (LossTrace(_grid(0.40, 0.59, 0.005), 1.0), WindowScorer, 400),
    "loss-small": (LossTrace([0.1, 0.3, 0.42, 0.45, 0.47, 0.5, 0.7, 0.95], 1.0), WindowScorer, 400),
    # merges, a failed pass, and a merge accepted after halving
    "link-window": (
        LinkTrace(_grid(0.0, 0.35, 0.05) + _grid(0.4, 0.6, 0.005) + _grid(0.65, 1.0, 0.05), 1.0),
        WindowScorer,
        400,
    ),
    # merges until the whole trace is one even run, then nothing left to propose
    "link-negative": (
        LinkTrace(_grid(0.0, 0.5, 0.01) + _grid(0.55, 1.0, 0.05), 1.0),
        NegativeScorer,
        400,
    ),
}


def minimize_case(name: str) -> dict:
    trace, scorer, budget = CASES[name]
    result = minimize_trace(trace, scorer(), MinimizeConfig(retention=0.9, max_evaluations=budget))
    return {
        "minimized_fingerprint": result.minimized.fingerprint(),
        "minimized_score": result.minimized_score,
        "evaluations": result.evaluations,
        "stages": result.stages,
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_minimization_matches_golden(name, golden):
    assert minimize_case(name) == golden[name]


def test_cases_exercise_every_stage(golden):
    accepted = {stage["stage"] for row in golden.values() for stage in row["stages"] if stage["rounds"]}
    assert accepted == {
        "segment-removal", "thinning", "single-event", "burst-coalescing", "segment-merging",
    }
    assert golden["traffic-one-burst-budget"]["evaluations"] == CASES["traffic-one-burst-budget"][2]
    gated = golden["loss-gate"]["stages"]
    assert gated[-1]["stage"] == "single-event" and gated[-1]["rounds"] == 0
    assert gated[-2]["events"] > SINGLE_EVENT_LIMIT


@pytest.mark.parametrize("name", ["link-negative", "link-window"])
def test_no_candidate_equal_to_the_current_trace_is_scored(name, monkeypatch):
    """A candidate equal to the current trace (a merge of a span that is
    already one even run) never costs an evaluation."""
    trace, scorer_class, budget = CASES[name]
    current = {}

    def tracked(stage):
        def proposals(start):
            current["trace"] = start
            inner, accepted = stage(start), None
            while True:
                try:
                    batch = inner.send(accepted)
                except StopIteration:
                    return
                accepted = yield batch
                if accepted is not None:
                    current["trace"] = accepted
        return proposals

    class Checked(scorer_class):
        def scores(self, traces):
            if "trace" in current:  # the baseline is scored before any stage runs
                fingerprint = current["trace"].fingerprint()
                assert all(t.fingerprint() != fingerprint for t in traces)
            return super().scores(traces)

    monkeypatch.setattr(minimize, "STAGES_BY_MODE", {
        mode: tuple((label, tracked(stage)) for label, stage in stages)
        for mode, stages in minimize.STAGES_BY_MODE.items()
    })
    minimize_trace(trace, Checked(), MinimizeConfig(retention=0.9, max_evaluations=budget))


if __name__ == "__main__":
    with open(GOLDEN, "w") as handle:
        json.dump({name: minimize_case(name) for name in sorted(CASES)}, handle, indent=1, sort_keys=True)
        handle.write("\n")
