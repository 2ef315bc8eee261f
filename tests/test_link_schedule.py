"""The link's own schedule matches links that schedule every event.

The bottleneck link runs its cross arrivals, service completions and
transmission opportunities in one loop of its own, handed control by the
run loop whenever its next ``(time, seq)`` key is the earliest.  It claims
each ``seq`` where scheduling the event as an entry would have, so the claim
is that nothing observable moves.

The oracle here is that earlier design, where each of those events was a
scheduler entry: a fixed-rate link scheduling each completion as it armed it
(the queue kicked it through an enqueue callback), a trace-driven link
scheduling every opportunity at start, and the topology scheduling one
``admit_cross`` event per injection.  They were lane entries; here they are
heap entries, which the engine orders alike (``tests/test_engine.py``).
Swapped into the topology, it must give the same result, the same event
count, the same final ``seq`` counter and clock — also when ``max_events``
ends the run inside a run of link events.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_utils import result_digest
from repro.netsim import simulation, topology
from repro.netsim.engine import sorted_input_times
from repro.netsim.link import Link, mbps_to_pps
from repro.netsim.packet import CCA_FLOW, CROSS_FLOW
from repro.netsim.simulation import SimulationConfig, SimulationTruncated, run_simulation
from repro.tcp import Bbr, Reno


class EntryQueue(Link):
    """The gateway queue whose methods admitted, dropped and served, kicking
    a fixed-rate link through an enqueue callback.  The link's own schedule
    never runs: ``head`` stays None, so the run loop never hands it control."""

    __slots__ = ("_on_enqueue",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._on_enqueue = None

    def _sample(self, now):
        if self._sample_depth:
            self._depth_times.append(now)
            self._depth_values.append(len(self.fifo))

    def _admit(self, item, flow, now):
        admitted = len(self.fifo) < self.capacity
        if admitted:
            self.fifo.append(item)
            if self._on_enqueue is not None:
                self._on_enqueue(now)
        else:
            self.drops[flow] = self.drops.get(flow, 0) + 1
        self._sample(now)
        return admitted

    def enqueue(self, packet, now):
        if len(self.fifo) < self.capacity:
            packet.enqueue_time = now
        return self._admit(packet, CCA_FLOW, now)

    def admit_cross(self, now):
        self._admit(now, CROSS_FLOW, now)

    def dequeue(self, now):
        if not self.fifo:
            return None
        item = self.fifo.popleft()
        self._sample(now)
        return item


class EntryLink(EntryQueue):
    """A link whose every event is a scheduler entry."""

    def start(self, horizon):
        self.horizon = horizon

    def admit(self, packet, now):
        return self.enqueue(packet, now)

    def _serve(self, now, item):
        arrival = now + self.propagation_delay
        if type(item) is float:
            if arrival <= self.horizon:
                self.cross_admissions.append(item)
                self.cross_departures.append(now)
        else:
            item.dequeue_time = now
            self.scheduler.lane.push_at(arrival, self.deliver, item)


class EntryFixedRateLink(EntryLink):
    def __init__(self, scheduler, deliver, rate_pps, propagation_delay=0.02, **gateway):
        super().__init__(scheduler, deliver, propagation_delay, **gateway)
        self._service_time = 1.0 / rate_pps
        self._busy = False
        self._on_enqueue = self.on_enqueue

    def on_enqueue(self, now):
        if not self._busy:
            self._busy = True
            self.scheduler.schedule_at(now + self._service_time, self._finish_service)

    def _finish_service(self):
        now = self.scheduler.now
        item = self.dequeue(now)
        if item is not None:
            self._serve(now, item)
        if self.fifo:
            self.scheduler.schedule_at(now + self._service_time, self._finish_service)
        else:
            self._busy = False


class EntryTraceDrivenLink(EntryLink):
    def __init__(self, scheduler, deliver, opportunities, propagation_delay=0.02, **gateway):
        super().__init__(scheduler, deliver, propagation_delay, **gateway)
        self.opportunities = sorted_input_times(opportunities, "transmission opportunities")

    def start(self, horizon):
        super().start(horizon)
        for t in self.opportunities:
            if t <= horizon:
                self.scheduler.schedule_at(t, self._service_opportunity)

    def _service_opportunity(self):
        now = self.scheduler.now
        item = self.dequeue(now)
        if item is None:
            self.wasted_opportunities += 1
        else:
            self._serve(now, item)


class EntryTopology(topology.DumbbellTopology):
    """The dumbbell scheduling one ``admit_cross`` event per injection."""

    def start(self):
        horizon = self.config.duration
        self.link.start(horizon)
        for t in self._cross_times or ():
            if t <= horizon:
                self.scheduler.schedule_at(t, self._admit_cross, t)
        self.sender.start()

    def _admit_cross(self, now):
        self.link.cross_sent += 1
        self.link.admit_cross(now)


def _run(per_entry, cca, config, **inputs):
    """``run_simulation`` on either design; returns the result (or the
    ``SimulationTruncated`` it raised) and the topology it ran."""
    built = []
    base = EntryTopology if per_entry else topology.DumbbellTopology

    class Topology(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulation, "DumbbellTopology", Topology)
        if per_entry:
            patch.setattr(topology, "FixedRateLink", EntryFixedRateLink)
            patch.setattr(topology, "TraceDrivenLink", EntryTraceDrivenLink)
        try:
            outcome = run_simulation(cca, config, **inputs)
        except SimulationTruncated as truncated:
            outcome = truncated
    return outcome, built[0]


def _state(network):
    """What a run leaves behind, truncated or not."""
    link, monitor = network.link, network.monitor
    return {
        "now": network.scheduler.now,
        "seq": network.scheduler._seq,
        "fifo": [item if type(item) is float else item.seq for item in link.fifo],
        "drops": dict(link.drops),
        "depth": link.depth_samples,
        "cross_columns": (link.cross_admissions, link.cross_departures),
        "cross_sent": link.cross_sent,
        "wasted": link.wasted_opportunities,
        "propagating": [(e[0], e[1]) for e in network.scheduler.lane._events],
        "sent": monitor.sent_count(CCA_FLOW),
        "egress": list(monitor.egress_times(CCA_FLOW)),
        "segments_sent": network.sender.stats.segments_sent,
    }


def _assert_identical(cca, config, **inputs):
    """Both designs run alike; returns the link schedule's outcome."""
    outcome, network = _run(False, cca, config, **inputs)
    reference, entry_network = _run(True, cca, config, **inputs)
    assert type(outcome) is type(reference)
    assert outcome.events_executed == reference.events_executed
    assert _state(network) == _state(entry_network)
    if not isinstance(outcome, SimulationTruncated):
        assert result_digest(outcome) == result_digest(reference)
    return outcome


@settings(max_examples=40, deadline=None)
@given(
    cca=st.sampled_from([Reno, Bbr]),
    duration=st.floats(min_value=0.1, max_value=1.0),
    fractions=st.one_of(
        st.none(), st.lists(st.floats(min_value=0.0, max_value=1.1), max_size=300)
    ),
    opportunities=st.one_of(
        st.none(), st.lists(st.floats(min_value=0.0, max_value=1.1), max_size=600)
    ),
    rate_mbps=st.sampled_from([3.0, 12.0, 48.0]),
    queue=st.sampled_from([3, 20, 60]),
    record_series=st.booleans(),
    cap=st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
)
def test_link_schedule_matches_per_entry_links(
    cca, duration, fractions, opportunities, rate_mbps, queue, record_series, cap
):
    """Both link kinds, cross traffic on and off, series on and off, and a
    ``max_events`` cap at a random fraction of the full run's events."""
    config = SimulationConfig(
        duration=duration, bottleneck_rate_mbps=rate_mbps, queue_capacity=queue,
        record_series=record_series,
    )
    inputs = {}
    if fractions is not None:
        inputs["cross_traffic_times"] = [f * duration for f in fractions]
    if opportunities is not None:
        inputs["link_trace"] = [f * duration for f in opportunities]
    full = _assert_identical(cca, config, **inputs)
    if cap is not None:
        capped = config.with_overrides(max_events=int(cap * full.events_executed))
        _assert_identical(cca, capped, **inputs)


SERVICE = 1.0 / mbps_to_pps(12.0)  #: the default link's time per packet


def _quiet(duration=0.5, **overrides):
    """A run whose sender starts after it ends: only the link's events run."""
    return SimulationConfig(duration=duration, sender_start_time=duration + 1.0, **overrides)


def test_cap_inside_a_run_of_link_events():
    """Forty cross packets queued at once, no flow under test: every event
    is the link's, so each cap below ends the run inside one hand-off."""
    inputs = {"cross_traffic_times": [0.1] * 40}
    full = _assert_identical(Reno, _quiet(), **inputs)
    assert full.events_executed == 40 + 40
    for cap in (1, 2, 39, 41, 79):
        truncated = _assert_identical(Reno, _quiet(max_events=cap), **inputs)
        assert truncated.events_executed == cap


def test_cross_arrival_at_a_completion_instant():
    """A cross arrival at the instant a service completes runs first: its
    ``seq`` was reserved at start, the completion's claimed later.  The
    times are the link's own sums, so the ties are exact."""
    first = 0.1 + SERVICE
    times = [0.1, first, first + SERVICE]
    result = _assert_identical(Reno, _quiet(queue_capacity=1), cross_traffic_times=times)
    # The second finds the slot still taken; the third, an idle link.
    assert result.queue_drops[CROSS_FLOW] == 1
    assert result.cross_delivered == 2


def test_opportunity_and_cross_arrival_at_the_same_time():
    """The opportunity's block is reserved first, so it finds the queue
    empty and is wasted; the next one serves the cross packet."""
    result = _assert_identical(
        Reno, _quiet(), cross_traffic_times=[0.2], link_trace=[0.2, 0.3]
    )
    assert result.link_wasted_opportunities == 1
    assert result.cross_delivered == 1


def test_sender_transmission_at_a_completion_instant():
    """The sender's start was scheduled before the cross arrival armed the
    completion it ties with, so it transmits first."""
    config = SimulationConfig(duration=0.5, sender_start_time=SERVICE)
    _assert_identical(Reno, config, cross_traffic_times=[0.0])
    _assert_identical(Bbr, config, cross_traffic_times=[0.0] * 5)


@pytest.mark.parametrize("link", ["fixed", "trace"])
def test_link_event_exactly_at_the_horizon_runs(link):
    """A cross arrival and a service at exactly ``duration`` both run."""
    duration = 0.125 + SERVICE  # the fixed-rate link's first completion
    inputs = {"cross_traffic_times": [0.125, duration]}
    if link == "trace":
        inputs["link_trace"] = [duration, math.nextafter(duration, 1.0)]
    result = _assert_identical(Reno, _quiet(duration), **inputs)
    assert result.cross_sent == 2
    assert result.link_wasted_opportunities == 0
    assert result.events_executed == 3
