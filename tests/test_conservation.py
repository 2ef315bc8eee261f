"""Cross-traffic conservation: every injected cross packet is accounted for.

Cross traffic is open-loop: each injection at or before ``duration`` is
sent, and a sent packet is dropped at the gateway, delivered to the sink, or
still on its way (queued, or propagating past the horizon) when the run ends.
Once the link has had time to drain a full queue behind the last injection,
nothing is left on the way.  The FIFO serves items in admission order, so
behind the last cross packet there are at most ``queue_capacity`` items
ahead of it and including it: at a service rate ``r`` it has reached the sink
``queue_capacity / r + propagation_delay`` after its injection.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.link import mbps_to_pps
from repro.netsim.packet import CROSS_FLOW
from repro.netsim.simulation import SimulationConfig, run_simulation
from repro.tcp import Bbr, Reno


def _assert_conserved(result, injections, drained):
    sent = sum(1 for t in injections if t <= result.duration)
    dropped = result.queue_drops.get(CROSS_FLOW, 0)
    assert result.cross_sent == sent
    assert result.cross_dropped_at_queue == dropped
    assert result.cross_delivered + dropped <= sent
    if drained:
        assert result.cross_delivered + dropped == sent


@settings(max_examples=60, deadline=None)
@given(
    cca=st.sampled_from([Reno, Bbr]),
    fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=200),
    last=st.floats(min_value=0.0, max_value=0.6),
    slack=st.floats(min_value=-0.3, max_value=0.3),
    trace_link=st.booleans(),
    opportunities=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=300),
    rate_mbps=st.sampled_from([3.0, 12.0, 48.0]),
    queue=st.sampled_from([3, 20, 60]),
)
def test_cross_traffic_is_conserved(
    cca, fractions, last, slack, trace_link, opportunities, rate_mbps, queue
):
    """Random cross traffic, all injected by ``last``, on either link kind.

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
    result = run_simulation(cca, config, **inputs)
    # A margin over the bound absorbs the rounding of the service clock.
    _assert_conserved(result, injections, drained=slack > 1e-9)


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
