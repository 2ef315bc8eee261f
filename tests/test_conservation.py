"""Packet conservation: every packet of either flow is accounted for.

Both halves run on the same random inputs; the flow under test's half is
stated at its test, and so is the bound that holds the link's service to
its capacity on those inputs.  Cross traffic is open-loop: each injection at or before
``duration`` is sent, and a sent packet is dropped at the gateway, delivered
to the sink, or still on its way (queued, or propagating past the horizon)
when the run ends.  Once the link has had time to drain a full queue behind
the last injection, nothing is left on the way.  The FIFO serves items in
admission order, so behind the last cross packet there are at most
``queue_capacity`` items ahead of it and including it: at a service rate
``r`` it has reached the sink ``queue_capacity / r + propagation_delay``
after its injection.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import simulation, topology
from repro.netsim.link import mbps_to_pps
from repro.netsim.packet import CCA_FLOW, CROSS_FLOW
from repro.netsim.simulation import SimulationConfig, run_simulation
from repro.tcp import Bbr, Reno


def _assert_conserved(result, injections, drained):
    sent = sum(1 for t in injections if t <= result.duration)
    dropped = result.queue_drops.get(CROSS_FLOW, 0)
    assert result.cross_sent == sent
    assert result.cross_delivered + dropped <= sent
    if drained:
        assert result.cross_delivered + dropped == sent


#: Random cross traffic, all injected by ``last``, on either link kind.
SCENARIOS = dict(
    cca=st.sampled_from([Reno, Bbr]),
    fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=200),
    last=st.floats(min_value=0.0, max_value=0.6),
    slack=st.floats(min_value=-0.3, max_value=0.3),
    trace_link=st.booleans(),
    opportunities=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=300),
    rate_mbps=st.sampled_from([3.0, 12.0, 48.0]),
    queue=st.sampled_from([3, 20, 60]),
)


def _scenario(fractions, last, slack, trace_link, opportunities, rate_mbps, queue):
    """``(config, run_simulation inputs, injections, drained)`` for one draw.

    The drain bound is ``queue / rate + propagation_delay``.  A trace-driven
    link gets ``queue`` opportunities at ``rate`` right after ``last`` on top
    of its random ones, so it drains at least that fast; ``slack`` puts the
    end of the run on either side of the bound.
    """
    propagation_delay = 0.02
    rate_pps = mbps_to_pps(rate_mbps)
    drain = queue / rate_pps + propagation_delay
    duration = max(0.05, last + drain + slack)
    injections = [f * last for f in fractions]
    inputs = {"cross_traffic_times": injections}
    if trace_link:
        inputs["link_trace"] = [f * duration for f in opportunities] + [
            last + k / rate_pps for k in range(1, queue + 1)
        ]
    config = SimulationConfig(
        duration=duration, bottleneck_rate_mbps=rate_mbps, queue_capacity=queue,
        propagation_delay=propagation_delay, record_series=False,
    )
    # A margin over the bound absorbs the rounding of the service clock.
    return config, inputs, injections, slack > 1e-9


@settings(max_examples=60, deadline=None)
@given(**SCENARIOS)
def test_cross_traffic_is_conserved(cca, **draw):
    config, inputs, injections, drained = _scenario(**draw)
    result = run_simulation(cca, config, **inputs)
    _assert_conserved(result, injections, drained)


def _run_keeping_topology(cca, config, **inputs):
    """``run_simulation``, and the topology it ran, to read what is still on
    the way at the horizon."""
    built = []

    class Topology(topology.DumbbellTopology):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulation, "DumbbellTopology", Topology)
        result = run_simulation(cca, config, **inputs)
    return result, built[0]


@settings(max_examples=60, deadline=None)
@given(losses=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=20), **SCENARIOS)
def test_flow_under_test_is_conserved(cca, losses, **draw):
    """Every segment the sender transmits is accounted for at the horizon.

    The access link is instantaneous, so each transmission reaches the
    gateway at once: the sender's count equals the monitor's ingress count.
    A sent segment is delivered, dropped at the queue, dropped by the random
    loss schedule, or still on its way, exactly: queued (at most the queue's
    capacity; cross items in the FIFO are floats), or served and propagating
    past the horizon on the link's delivery lane (at most the service of the
    last propagation delay: a fixed-rate link completes one service per
    ``1 / rate``, a trace-driven link one per opportunity).
    """
    config, inputs, _, _ = _scenario(**draw)
    horizon = config.duration
    inputs["loss_times"] = [f * horizon for f in losses]
    result, network = _run_keeping_topology(cca, config, **inputs)

    sent = result.monitor.sent_count(CCA_FLOW)
    assert result.sender_stats.segments_sent == sent
    queued = sum(type(item) is not float for item in network.link.fifo)
    deliver = network.link.deliver
    propagating = sum(
        event[3] == deliver for event in network.scheduler.lane._events
    )
    accounted = (
        result.delivered_segments() + result.queue_drops.get(CCA_FLOW, 0)
        + result.forced_losses
    )
    assert accounted + queued + propagating == sent
    assert queued <= config.queue_capacity
    window = config.propagation_delay
    if "link_trace" in inputs:
        served = sum(horizon - window <= t <= horizon for t in inputs["link_trace"])
    else:
        served = math.ceil(window * mbps_to_pps(config.bottleneck_rate_mbps)) + 1
    assert propagating <= served


@settings(max_examples=60, deadline=None)
@given(**SCENARIOS)
def test_service_is_within_capacity(cca, **draw):
    """Delivered <= capacity, read from the run's topology.

    Every item the gateway admitted (either flow's) was served by the
    horizon or is still queued.  A trace-driven link serves at most one item
    per opportunity at or before the horizon, and each it does not serve is
    counted as wasted, so the two add up exactly.  A fixed-rate link serves
    at most one item per ``1 / rate`` of the run (one more absorbs the
    rounding of its service clock).  The FIFO never holds more than its
    capacity, at any admission, drop or service.
    """
    config, inputs, _, _ = _scenario(**draw)
    config = config.with_overrides(record_series=True)
    horizon = config.duration
    result, network = _run_keeping_topology(cca, config, **inputs)

    admitted = (
        result.monitor.sent_count(CCA_FLOW) - result.queue_drops.get(CCA_FLOW, 0)
        + result.cross_sent - result.queue_drops.get(CROSS_FLOW, 0)
    )
    served = admitted - len(network.link.fifo)
    if "link_trace" in inputs:
        opportunities = sum(t <= horizon for t in inputs["link_trace"])
        assert served + result.link_wasted_opportunities == opportunities
    else:
        rate_pps = mbps_to_pps(config.bottleneck_rate_mbps)
        assert served <= math.floor(horizon * rate_pps) + 1
    depths = [depth for _, depth in network.link.depth_samples]
    assert max(depths, default=0) <= config.queue_capacity


@settings(max_examples=15, deadline=None)
@given(
    fractions=st.lists(st.floats(min_value=0.0, max_value=2.0), max_size=200),
    duration=st.floats(min_value=0.1, max_value=1.0),
)
def test_injections_after_the_horizon_are_not_sent(fractions, duration):
    """Only injections at or before ``duration`` are sent at all."""
    injections = [f * duration for f in fractions]
    config = SimulationConfig(duration=duration, record_series=False)
    result = run_simulation(Reno, config, cross_traffic_times=injections)
    _assert_conserved(result, injections, drained=False)
