"""Cross-traffic sink arrivals are counted at service time, not scheduled.

The oracle is a link that delivers cross packets the way every other
delayed packet travels: as an event on the propagation lane, stamped by the
scheduler's clock when it runs, and dropped by the run loop's horizon when it
lands after ``duration``.  Swapped into the topology for the real links, it
must give the same result bit for bit; the only difference is one scheduler
event per cross packet that reached the sink.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_utils import result_digest
from repro.attacks import builtin_attack_traces
from repro.netsim import topology
from repro.netsim.link import FixedRateLink, TraceDrivenLink, mbps_to_pps
from repro.netsim.simulation import SimulationConfig, run_simulation
from repro.tcp import Bbr, Reno
from repro.tcp.cca import cca_factory
from repro.traces.trace import LinkTrace


def _scheduled_arrivals(link_class):
    """``link_class`` delivering each cross packet as a propagation-lane
    event, counted when (and if) the run loop reaches it."""

    class ScheduledArrivalLink(link_class):
        def start(self, horizon, count_at_sink):
            super().start(horizon, self._schedule_arrival)
            self._count = count_at_sink
            # Schedule every arrival: the run loop's horizon decides.
            self.horizon = math.inf

        def _schedule_arrival(self, packet, arrival):
            self._delivery_lane.push_at(arrival, self._arrive, packet)

        def _arrive(self, packet):
            self._count(packet, self.scheduler.now)

    return ScheduledArrivalLink


def _both_runs(cca, config, **inputs):
    """(counted at service time, scheduled oracle) results for one input."""
    counted = run_simulation(cca, config, **inputs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(topology, "FixedRateLink", _scheduled_arrivals(FixedRateLink))
        patch.setattr(topology, "TraceDrivenLink", _scheduled_arrivals(TraceDrivenLink))
        scheduled = run_simulation(cca, config, **inputs)
    return counted, scheduled


def _assert_equivalent(counted, scheduled):
    assert result_digest(counted) == result_digest(scheduled)
    assert scheduled.events_executed - counted.events_executed == counted.cross_delivered


GOLDEN_ATTACKS = [
    "lowrate", "cubic-two-burst", "bbr-stall", "bbr-double-loss", "bbr-delay", "bbr-stall-link",
]


@pytest.mark.parametrize("attack", GOLDEN_ATTACKS)
@pytest.mark.parametrize("cca", ["reno", "cubic", "bbr"])
def test_golden_scenarios_match_scheduled_arrivals(attack, cca):
    """The scenarios ``golden_sim_results.json`` pins, at its 5 s duration."""
    trace = builtin_attack_traces(duration=5.0)[attack]
    keyword = "link_trace" if isinstance(trace, LinkTrace) else "cross_traffic_times"
    counted, scheduled = _both_runs(
        cca_factory(cca), SimulationConfig(duration=5.0),
        **{keyword: trace.timestamps},
    )
    _assert_equivalent(counted, scheduled)
    if keyword == "cross_traffic_times":
        assert counted.cross_delivered > 0


@settings(max_examples=25, deadline=None)
@given(
    duration=st.floats(min_value=0.2, max_value=1.5),
    fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=300),
    opportunities=st.one_of(
        st.none(), st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=600)
    ),
    rate_mbps=st.sampled_from([3.0, 12.0, 48.0]),
    queue=st.sampled_from([5, 60]),
)
def test_random_cross_traffic_matches_scheduled_arrivals(
    duration, fractions, opportunities, rate_mbps, queue
):
    """Hypothesis cross traffic, on a fixed-rate link or a random service curve."""
    config = SimulationConfig(
        duration=duration, bottleneck_rate_mbps=rate_mbps, queue_capacity=queue,
        record_series=False,
    )
    inputs = {"cross_traffic_times": [f * duration for f in fractions]}
    if opportunities is not None:
        inputs["link_trace"] = [f * duration for f in opportunities]
    _assert_equivalent(*_both_runs(Bbr, config, **inputs))


def _lone_cross_packet(duration, **inputs):
    """How many cross packets reached the sink in a run of ``duration`` with
    no flow under test (its sender starts after the run); both runs agree."""
    config = SimulationConfig(duration=duration, sender_start_time=duration + 1.0)
    counted, scheduled = _both_runs(Reno, config, **inputs)
    _assert_equivalent(counted, scheduled)
    return counted.cross_delivered


@pytest.mark.parametrize("link", ["fixed", "trace"])
def test_arrival_at_the_horizon_counts_and_one_just_after_does_not(link):
    """The run loop's horizon is inclusive, and so is the link's."""
    config = SimulationConfig()
    inject = 0.1
    if link == "fixed":
        served = inject + 1.0 / mbps_to_pps(config.bottleneck_rate_mbps, config.mss_bytes)
        inputs = {"cross_traffic_times": [inject]}
    else:
        served = 0.3
        inputs = {"cross_traffic_times": [inject], "link_trace": [served]}
    arrival = served + config.propagation_delay
    assert _lone_cross_packet(arrival, **inputs) == 1
    assert _lone_cross_packet(math.nextafter(arrival, 0.0), **inputs) == 0
