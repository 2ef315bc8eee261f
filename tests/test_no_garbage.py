"""A run frees itself: once ``run_simulation`` or ``evaluate_job`` returns
(or raises) and its result is dropped, nothing is left for the cyclic
collector.  Each check runs with the collector off, so an object graph that
only a collector pass could free shows up as a nonzero ``gc.collect()``."""

from __future__ import annotations

import gc

import pytest

from repro.exec.workers import EvaluationJob, evaluate_job
from repro.netsim.simulation import SimulationConfig, SimulationTruncated, run_simulation
from repro.scoring.base import ScoreFunction
from repro.scoring.performance import LowUtilizationScore
from repro.tcp.cca import CCA_FACTORIES
from repro.tcp.cca.reno import Reno
from repro.traces.generator import LinkTraceGenerator, LossTraceGenerator, TrafficTraceGenerator

DURATION = 1.0

INPUTS = {
    "cross_traffic": lambda: {"cross_traffic_times": [i * 0.002 for i in range(400)]},
    "link_trace": lambda: {"link_trace": [i * 0.0012 for i in range(800)]},
    "loss": lambda: {
        "loss_times": [0.1, 0.3, 0.3],
        "drop_filter": lambda packet, now: packet.seq in (20, 21),
    },
}


def _cyclic_garbage(call, raises=None):
    """What the cyclic collector finds after ``call()``, its result dropped;
    ``raises`` is the exception type the call must end with."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            call()
        except Exception as error:
            assert raises is not None and isinstance(error, raises), error
        else:
            assert raises is None, f"expected {raises.__name__}"
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("record_series", [True, False])
@pytest.mark.parametrize("kind", sorted(INPUTS))
@pytest.mark.parametrize("cca", sorted(CCA_FACTORIES))
def test_a_run_leaves_no_cycles(cca, kind, record_series):
    config = SimulationConfig(duration=DURATION, record_series=record_series)
    inputs = INPUTS[kind]()
    assert _cyclic_garbage(lambda: run_simulation(CCA_FACTORIES[cca], config, **inputs)) == 0


def test_a_truncated_run_leaves_no_cycles():
    config = SimulationConfig(duration=DURATION, max_events=200)
    call = lambda: run_simulation(Reno, config, **INPUTS["cross_traffic"]())
    assert _cyclic_garbage(call, raises=SimulationTruncated) == 0


def test_a_raising_drop_filter_leaves_no_cycles():
    def drop_filter(packet, now):
        if packet.seq == 30:
            raise RuntimeError("drop filter failed")
        return False

    config = SimulationConfig(duration=DURATION)
    call = lambda: run_simulation(Reno, config, drop_filter=drop_filter)
    assert _cyclic_garbage(call, raises=RuntimeError) == 0


class _FailingReno(Reno):
    def on_ack(self, event):
        if event.delivered >= 10:
            raise RuntimeError("cca failed")
        super().on_ack(event)


def test_a_raising_cca_leaves_no_cycles():
    call = lambda: run_simulation(_FailingReno, SimulationConfig(duration=DURATION))
    assert _cyclic_garbage(call, raises=RuntimeError) == 0


@pytest.mark.parametrize("generator", [
    TrafficTraceGenerator(DURATION, max_packets=300, seed=1),
    LinkTraceGenerator(DURATION, seed=2),
    LossTraceGenerator(DURATION, max_losses=5, seed=3),
], ids=["traffic", "link", "loss"])
def test_evaluate_job_leaves_no_cycles(generator):
    job = EvaluationJob(
        CCA_FACTORIES["bbr"], SimulationConfig(duration=DURATION, record_series=False),
        generator.generate(), ScoreFunction(performance=LowUtilizationScore()),
    )
    assert _cyclic_garbage(lambda: evaluate_job(job)) == 0


@pytest.mark.parametrize("inputs", [
    {"link_trace": [0.1, float("nan"), 0.3]},
    {"cross_traffic_times": [0.1, -0.2]},
    {"loss_times": [0.1, float("inf")]},
], ids=["nan-link-trace", "negative-cross-time", "infinite-loss-time"])
def test_a_rejected_input_leaves_no_cycles(inputs):
    # The input is refused while the topology is built, before the run.
    call = lambda: run_simulation(Reno, SimulationConfig(duration=DURATION), **inputs)
    assert _cyclic_garbage(call, raises=ValueError) == 0
