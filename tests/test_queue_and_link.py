"""Unit tests for the bottleneck link models and their drop-tail gateway queue."""

from __future__ import annotations

import pytest

from repro.netsim.engine import EventScheduler
from repro.netsim.link import FixedRateLink, TraceDrivenLink, mbps_to_pps, pps_to_mbps
from repro.netsim.packet import CCA_FLOW, CROSS_FLOW, Packet


def make_packet(seq: int = 0) -> Packet:
    return Packet(seq=seq)


def trace_link(capacity, opportunities=(), deliver=lambda p: None):
    """A trace-driven link queueing ``capacity`` packets, with no propagation delay."""
    return TraceDrivenLink(
        EventScheduler(), deliver, opportunities=opportunities, propagation_delay=0.0,
        capacity_packets=capacity,
    )


class TestGatewayAdmission:
    def test_enqueue_dequeue_fifo_order(self):
        delivered = []
        link = trace_link(10, [1.0] * 5, delivered.append)
        for seq in range(5):
            assert link.admit(make_packet(seq), now=0.0)
        link.start(horizon=1.0)
        link.scheduler.run(until=1.0)
        assert [p.seq for p in delivered] == [0, 1, 2, 3, 4]

    def test_tail_drop_when_full(self):
        link = trace_link(3)
        for seq in range(3):
            assert link.admit(make_packet(seq), now=0.0)
        assert not link.admit(make_packet(99), now=0.0)
        assert link.drops == {CCA_FLOW: 1}
        assert len(link.fifo) == 3

    def test_per_flow_drop_accounting(self):
        scheduler = EventScheduler()
        link = FixedRateLink(scheduler, lambda p: None, rate_pps=100.0, capacity_packets=1)
        link.start(horizon=1.0, cross_times=[0.0])
        assert link.admit(make_packet(0), now=0.0)
        assert not link.admit(make_packet(1), now=0.0)
        assert scheduler.run(max_events=1) == 1  # the cross arrival, into a full queue
        assert link.drops == {CCA_FLOW: 1, CROSS_FLOW: 1}

    def test_cross_packet_is_its_admission_time(self):
        link = trace_link(5, [0.3, 0.4])
        link.admit(make_packet(0), now=0.1)
        link.start(horizon=1.0, cross_times=[0.2])
        link.scheduler.run(until=0.35)
        assert link.depth_samples == [(0.1, 1), (0.2, 2), (0.3, 1)]
        assert list(link.fifo) == [0.2]
        link.scheduler.run(until=1.0)
        assert (link.cross_admissions, link.cross_departures) == ([0.2], [0.4])
        assert link.depth_samples[-1] == (0.4, 0)

    def test_enqueue_stamps_time_and_samples_depth(self):
        link = trace_link(5)
        packet = make_packet(0)
        link.admit(packet, now=1.25)
        assert packet.enqueue_time == 1.25
        assert link.depth_samples[-1] == (1.25, 1)

    def test_an_empty_queue_is_served_nothing_and_not_sampled(self):
        link = trace_link(5, [0.5])
        link.start(horizon=1.0)
        assert link.scheduler.run(until=1.0) == 1
        assert link.wasted_opportunities == 1
        assert link.depth_samples == []

    @pytest.mark.parametrize("make", [
        lambda capacity: trace_link(capacity),
        lambda capacity: FixedRateLink(
            EventScheduler(), lambda p: None, rate_pps=1.0, capacity_packets=capacity
        ),
    ])
    def test_invalid_capacity_rejected(self, make):
        with pytest.raises(ValueError, match="queue capacity"):
            make(0)

    def test_admitting_starts_an_idle_fixed_rate_link(self):
        """Admitting to an idle link arms its next completion, claiming a
        ``seq``; admitting to a busy one, or a refused packet, claims none."""
        scheduler = EventScheduler()
        link = FixedRateLink(scheduler, lambda p: None, rate_pps=4.0, capacity_packets=2)
        link.start(horizon=1.0)
        assert link.head is None
        link.admit(make_packet(7), now=0.5)
        link.admit(make_packet(8), now=0.5)
        link.admit(make_packet(9), now=0.5)
        assert link.head == (0.75, 0)
        assert scheduler._seq == 1


class TestRateConversions:
    def test_12_mbps_is_1000_packets_per_second(self):
        assert mbps_to_pps(12.0) == pytest.approx(1000.0)

    def test_roundtrip(self):
        assert pps_to_mbps(mbps_to_pps(7.5)) == pytest.approx(7.5)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            mbps_to_pps(0.0)


class TestFixedRateLink:
    def test_serves_at_configured_rate(self):
        scheduler = EventScheduler()
        delivered = []
        link = FixedRateLink(
            scheduler, lambda p: delivered.append((p.seq, scheduler.now)),
            rate_pps=100.0, propagation_delay=0.0,
        )
        link.start(horizon=1.0)
        for seq in range(10):
            link.admit(make_packet(seq), now=0.0)
        scheduler.run(until=1.0)
        assert len(delivered) == 10
        # One packet every 10 ms at 100 packets/s.
        times = [t for _, t in delivered]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(abs(gap - 0.01) < 1e-9 for gap in gaps)

    def test_propagation_delay_added(self):
        scheduler = EventScheduler()
        delivered = []
        link = FixedRateLink(
            scheduler, lambda p: delivered.append(scheduler.now),
            rate_pps=1000.0, propagation_delay=0.02,
        )
        link.start(horizon=1.0)
        link.admit(make_packet(0), now=0.0)
        scheduler.run(until=1.0)
        assert delivered[0] == pytest.approx(0.001 + 0.02)

    def test_work_conserving_after_idle(self):
        scheduler = EventScheduler()
        delivered = []
        link = FixedRateLink(
            scheduler, lambda p: delivered.append(scheduler.now),
            rate_pps=1000.0, propagation_delay=0.0,
        )
        link.start(horizon=1.0)
        link.admit(make_packet(0), now=0.0)
        scheduler.run(until=0.5)
        scheduler.schedule(0.0, lambda: link.admit(make_packet(1), scheduler.now))
        scheduler.run(until=1.0)
        assert len(delivered) == 2

    def test_cross_items_are_recorded_not_delivered(self):
        """A served cross item reaching the sink by the horizon lands in the
        link's columns; one arriving after it is served but not recorded."""
        scheduler = EventScheduler()
        delivered = []
        link = FixedRateLink(
            scheduler, delivered.append, rate_pps=100.0, propagation_delay=0.05,
        )
        link.start(horizon=0.075, cross_times=[0.0, 0.005])
        scheduler.schedule_at(0.0, link.admit, make_packet(0), 0.0)
        scheduler.run(until=0.075)
        assert [p.seq for p in delivered] == [0]
        assert link.cross_admissions == [0.0]
        assert link.cross_departures == [0.01]
        assert len(link.fifo) == 0

    def test_invalid_rate_rejected(self):
        scheduler = EventScheduler()
        with pytest.raises(ValueError):
            FixedRateLink(scheduler, lambda p: None, rate_pps=0.0)


class TestTraceDrivenLink:
    def test_serves_one_packet_per_opportunity(self):
        scheduler = EventScheduler()
        delivered = []
        link = TraceDrivenLink(
            scheduler, lambda p: delivered.append((p.seq, scheduler.now)),
            opportunities=[0.1, 0.2, 0.3], propagation_delay=0.0,
        )
        for seq in range(2):
            link.admit(make_packet(seq), now=0.0)
        link.start(horizon=1.0)
        scheduler.run(until=1.0)
        assert [seq for seq, _ in delivered] == [0, 1]
        assert [t for _, t in delivered] == pytest.approx([0.1, 0.2])

    def test_opportunity_wasted_when_queue_empty(self):
        scheduler = EventScheduler()
        link = TraceDrivenLink(
            scheduler, lambda p: None, opportunities=[0.1, 0.2], propagation_delay=0.0
        )
        link.start(horizon=1.0)
        scheduler.run(until=1.0)
        assert link.wasted_opportunities == 2

    def test_negative_opportunity_rejected(self):
        scheduler = EventScheduler()
        with pytest.raises(ValueError):
            TraceDrivenLink(scheduler, lambda p: None, opportunities=[-0.5])

    def test_opportunities_sorted_internally(self):
        scheduler = EventScheduler()
        delivered = []
        link = TraceDrivenLink(
            scheduler, lambda p: delivered.append(scheduler.now),
            opportunities=[0.3, 0.1, 0.2], propagation_delay=0.0,
        )
        for seq in range(3):
            link.admit(make_packet(seq), now=0.0)
        link.start(horizon=1.0)
        scheduler.run(until=1.0)
        assert delivered == pytest.approx([0.1, 0.2, 0.3])
