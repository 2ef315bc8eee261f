"""Unit tests for the drop-tail queue and the bottleneck link models."""

from __future__ import annotations

import pytest

from repro.netsim.engine import EventScheduler
from repro.netsim.link import FixedRateLink, TraceDrivenLink, mbps_to_pps, pps_to_mbps
from repro.netsim.packet import CCA_FLOW, CROSS_FLOW, Packet
from repro.netsim.queue import DropTailQueue


def make_packet(seq: int = 0) -> Packet:
    return Packet(seq=seq)


class TestDropTailQueue:
    def test_enqueue_dequeue_fifo_order(self):
        queue = DropTailQueue(capacity_packets=10)
        for seq in range(5):
            assert queue.enqueue(make_packet(seq), now=0.0)
        order = [queue.dequeue(now=1.0).seq for _ in range(5)]
        assert order == [0, 1, 2, 3, 4]

    def test_tail_drop_when_full(self):
        queue = DropTailQueue(capacity_packets=3)
        for seq in range(3):
            assert queue.enqueue(make_packet(seq), now=0.0)
        assert not queue.enqueue(make_packet(99), now=0.0)
        assert queue.drops == {CCA_FLOW: 1}
        assert len(queue) == 3

    def test_per_flow_drop_accounting(self):
        queue = DropTailQueue(capacity_packets=1)
        queue.enqueue(make_packet(0), now=0.0)
        queue.enqueue(make_packet(1), now=0.0)
        queue.admit_cross(0.0)
        assert queue.drops == {CCA_FLOW: 1, CROSS_FLOW: 1}

    def test_cross_packet_is_its_admission_time(self):
        queue = DropTailQueue(capacity_packets=5)
        queue.enqueue(make_packet(0), now=0.1)
        queue.admit_cross(0.2)
        assert queue.depth_samples == [(0.1, 1), (0.2, 2)]
        assert queue.dequeue(now=0.3).seq == 0
        assert queue.dequeue(now=0.4) == 0.2
        assert queue.depth_samples[-1] == (0.4, 0)

    def test_enqueue_stamps_time_and_samples_depth(self):
        queue = DropTailQueue(capacity_packets=5)
        packet = make_packet(0)
        queue.enqueue(packet, now=1.25)
        assert packet.enqueue_time == 1.25
        assert queue.depth_samples[-1] == (1.25, 1)

    def test_dequeue_empty_returns_none(self):
        queue = DropTailQueue(capacity_packets=5)
        assert queue.dequeue(now=0.0) is None

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            DropTailQueue(capacity_packets=0)

    def test_enqueue_callback_invoked(self):
        calls = []
        queue = DropTailQueue(capacity_packets=5)
        queue.set_enqueue_callback(calls.append)
        queue.enqueue(make_packet(7), now=0.5)
        queue.admit_cross(0.75)
        assert calls == [0.5, 0.75]


class TestRateConversions:
    def test_12_mbps_is_1000_packets_per_second(self):
        assert mbps_to_pps(12.0, 1500) == pytest.approx(1000.0)

    def test_roundtrip(self):
        assert pps_to_mbps(mbps_to_pps(7.5)) == pytest.approx(7.5)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            mbps_to_pps(0.0)


class TestFixedRateLink:
    def test_serves_at_configured_rate(self):
        scheduler = EventScheduler()
        queue = DropTailQueue(capacity_packets=100)
        delivered = []
        link = FixedRateLink(
            scheduler, queue, lambda p: delivered.append((p.seq, scheduler.now)),
            rate_pps=100.0, propagation_delay=0.0,
        )
        link.start(horizon=1.0)
        for seq in range(10):
            queue.enqueue(make_packet(seq), now=0.0)
        scheduler.run(until=1.0)
        assert len(delivered) == 10
        # One packet every 10 ms at 100 packets/s.
        times = [t for _, t in delivered]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(abs(gap - 0.01) < 1e-9 for gap in gaps)

    def test_propagation_delay_added(self):
        scheduler = EventScheduler()
        queue = DropTailQueue(capacity_packets=10)
        delivered = []
        link = FixedRateLink(
            scheduler, queue, lambda p: delivered.append(scheduler.now),
            rate_pps=1000.0, propagation_delay=0.02,
        )
        link.start(horizon=1.0)
        queue.enqueue(make_packet(0), now=0.0)
        scheduler.run(until=1.0)
        assert delivered[0] == pytest.approx(0.001 + 0.02)

    def test_work_conserving_after_idle(self):
        scheduler = EventScheduler()
        queue = DropTailQueue(capacity_packets=10)
        delivered = []
        link = FixedRateLink(
            scheduler, queue, lambda p: delivered.append(scheduler.now),
            rate_pps=1000.0, propagation_delay=0.0,
        )
        link.start(horizon=1.0)
        queue.enqueue(make_packet(0), now=0.0)
        scheduler.run(until=0.5)
        scheduler.schedule(0.0, lambda: queue.enqueue(make_packet(1), scheduler.now))
        scheduler.run(until=1.0)
        assert len(delivered) == 2

    def test_cross_items_are_recorded_not_delivered(self):
        """A served cross item reaching the sink by the horizon lands in the
        link's columns; one arriving after it is served but not recorded."""
        scheduler = EventScheduler()
        queue = DropTailQueue(capacity_packets=10)
        delivered = []
        link = FixedRateLink(
            scheduler, queue, delivered.append, rate_pps=100.0, propagation_delay=0.05,
        )
        link.start(horizon=0.075)
        queue.admit_cross(0.0)
        queue.enqueue(make_packet(0), now=0.0)
        queue.admit_cross(0.0)
        scheduler.run(until=0.075)
        assert [p.seq for p in delivered] == [0]
        assert link.cross_admissions == [0.0]
        assert link.cross_departures == [0.01]
        assert len(queue) == 0

    def test_invalid_rate_rejected(self):
        scheduler = EventScheduler()
        queue = DropTailQueue(capacity_packets=10)
        with pytest.raises(ValueError):
            FixedRateLink(scheduler, queue, lambda p: None, rate_pps=0.0)


class TestTraceDrivenLink:
    def test_serves_one_packet_per_opportunity(self):
        scheduler = EventScheduler()
        queue = DropTailQueue(capacity_packets=10)
        delivered = []
        link = TraceDrivenLink(
            scheduler, queue, lambda p: delivered.append((p.seq, scheduler.now)),
            opportunities=[0.1, 0.2, 0.3], propagation_delay=0.0,
        )
        for seq in range(2):
            queue.enqueue(make_packet(seq), now=0.0)
        link.start(horizon=1.0)
        scheduler.run(until=1.0)
        assert [seq for seq, _ in delivered] == [0, 1]
        assert [t for _, t in delivered] == pytest.approx([0.1, 0.2])

    def test_opportunity_wasted_when_queue_empty(self):
        scheduler = EventScheduler()
        queue = DropTailQueue(capacity_packets=10)
        link = TraceDrivenLink(
            scheduler, queue, lambda p: None, opportunities=[0.1, 0.2], propagation_delay=0.0
        )
        link.start(horizon=1.0)
        scheduler.run(until=1.0)
        assert link.wasted_opportunities == 2

    def test_negative_opportunity_rejected(self):
        scheduler = EventScheduler()
        queue = DropTailQueue(capacity_packets=10)
        with pytest.raises(ValueError):
            TraceDrivenLink(scheduler, queue, lambda p: None, opportunities=[-0.5])

    def test_opportunities_sorted_internally(self):
        scheduler = EventScheduler()
        queue = DropTailQueue(capacity_packets=10)
        delivered = []
        link = TraceDrivenLink(
            scheduler, queue, lambda p: delivered.append(scheduler.now),
            opportunities=[0.3, 0.1, 0.2], propagation_delay=0.0,
        )
        for seq in range(3):
            queue.enqueue(make_packet(seq), now=0.0)
        link.start(horizon=1.0)
        scheduler.run(until=1.0)
        assert delivered == pytest.approx([0.1, 0.2, 0.3])
