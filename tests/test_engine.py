"""Unit tests for the discrete-event scheduler, and the reference its two
equivalence claims are held to: the lane merged by ``(time, seq)`` behaves
as a pure heap, and ``LazyTimer.arm`` as cancel + reschedule.  The third
source, a link's own schedule, is held to its reference in
``tests/test_link_schedule.py``; its hand-off is tested here."""

from __future__ import annotations

import functools
import heapq

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from repro.netsim.engine import EventScheduler, LazyTimer
from repro.netsim.link import TraceDrivenLink
from repro.netsim.packet import Packet
from repro.netsim.queue import DropTailQueue


def test_events_run_in_time_order():
    scheduler = EventScheduler()
    fired = []
    scheduler.schedule(2.0, fired.append, "late")
    scheduler.schedule(1.0, fired.append, "early")
    scheduler.schedule(1.5, fired.append, "middle")
    scheduler.run()
    assert fired == ["early", "middle", "late"]


def test_ties_break_by_insertion_order():
    scheduler = EventScheduler()
    fired = []
    for label in ["first", "second", "third"]:
        scheduler.schedule(1.0, fired.append, label)
    scheduler.run()
    assert fired == ["first", "second", "third"]


def test_clock_advances_to_event_time():
    scheduler = EventScheduler()
    seen = []
    scheduler.schedule(0.5, lambda: seen.append(scheduler.now))
    scheduler.run()
    assert seen == [0.5]
    assert scheduler.now == 0.5


def test_run_until_stops_before_later_events():
    scheduler = EventScheduler()
    fired = []
    scheduler.schedule(1.0, fired.append, "in-horizon")
    scheduler.schedule(3.0, fired.append, "beyond-horizon")
    executed = scheduler.run(until=2.0)
    assert executed == 1
    assert fired == ["in-horizon"]
    assert scheduler.now == 2.0


def test_run_until_advances_clock_even_with_no_events():
    scheduler = EventScheduler()
    scheduler.run(until=5.0)
    assert scheduler.now == 5.0


def test_schedule_in_the_past_raises():
    scheduler = EventScheduler()
    scheduler.schedule(1.0, lambda: None)
    scheduler.run()
    with pytest.raises(ValueError):
        scheduler.schedule_at(0.5, lambda: None)
    with pytest.raises(ValueError):
        scheduler.schedule(-0.1, lambda: None)


def test_events_scheduled_during_run_are_processed():
    scheduler = EventScheduler()
    fired = []

    def chain(step: int) -> None:
        fired.append(step)
        if step < 3:
            scheduler.schedule(0.1, chain, step + 1)

    scheduler.schedule(0.0, chain, 0)
    scheduler.run()
    assert fired == [0, 1, 2, 3]


def test_max_events_limits_execution():
    scheduler = EventScheduler()
    fired = []
    for i in range(10):
        scheduler.schedule(i * 0.1, fired.append, i)
    scheduler.run(max_events=4)
    assert fired == [0, 1, 2, 3]


def test_max_events_leaves_the_clock_at_the_last_event():
    """A capped run must not claim it reached the horizon; a run that merely
    used its whole cap (nothing real left, only a disarmed timer's entry) did."""
    scheduler = EventScheduler()
    for i in range(10):
        scheduler.schedule(i * 0.1, lambda: None)
    assert scheduler.run(until=5.0, max_events=4) == 4
    assert scheduler.now == pytest.approx(0.3)
    assert scheduler.run(until=5.0) == 6
    assert scheduler.now == 5.0

    scheduler = EventScheduler()
    timer = scheduler.timer(lambda: None)
    timer.arm(2.0)
    scheduler.schedule(1.0, timer.disarm)
    assert scheduler.run(until=5.0, max_events=1) == 1
    assert scheduler.now == 5.0


class CountedLink(TraceDrivenLink):
    """Records how many events each hand-off ran."""

    __slots__ = ("calls",)

    def run_events(self, *args):
        ran = super().run_events(*args)
        self.calls.append(ran)
        assert ran, "a hand-off that runs nothing spins the run loop"
        return ran


def test_a_hand_off_runs_at_least_one_event_and_one_at_the_horizon():
    """The run loop hands the link control only when its first event is due
    before every other entry and at or before ``until``; each call runs at
    least one event, including events at exactly ``until``."""
    scheduler = EventScheduler()
    queue = DropTailQueue(capacity_packets=5)
    delivered = []
    link = CountedLink(
        scheduler, queue, delivered.append, opportunities=[0.5, 1.0], propagation_delay=0.0
    )
    link.calls = []
    link.start(1.0, [0.25, 1.0])
    scheduler.schedule_at(0.5, link.admit, Packet(seq=7), 0.5)
    # Link: the 0.25 arrival, the 0.5 opportunity (reserved before the heap
    # entry, so it serves the cross item).  Heap: the packet.  Link: the 1.0
    # opportunity serves it, then the 1.0 arrival.  Lane: its delivery.
    assert scheduler.run(until=1.0) == 6
    assert link.calls == [2, 2]
    assert scheduler.now == 1.0
    assert [p.seq for p in delivered] == [7]
    assert list(queue._queue) == [1.0] and link.cross_sent == 2
    # Nothing of the link's is left at or before the horizon: no hand-off.
    assert scheduler.run(until=1.0) == 0
    assert link.calls == [2, 2]


# --------------------------------------------------------------------------- #
# Oracle: EventScheduler against a pure-heap cancel-and-reschedule scheduler
# --------------------------------------------------------------------------- #


class ReferenceScheduler:
    """What EventScheduler claims to be equivalent to: every event through one
    heap keyed ``(time, insertion seq)``, cancellation by tombstone."""

    def __init__(self) -> None:
        self.now = 0.0
        self._seq = 0
        self._heap = []
        self._cancelled = set()

    def schedule_at(self, time, callback, *args) -> int:
        assert time >= self.now
        heapq.heappush(self._heap, (time, self._seq, callback, args))
        self._seq += 1
        return self._seq - 1

    push_at = schedule_at  # a lane is just the heap

    def schedule(self, delay, callback, *args) -> int:
        return self.schedule_at(self.now + delay, callback, *args)

    def timer(self, callback) -> "ReferenceTimer":
        return ReferenceTimer(self, callback)

    def run(self, until=None, max_events=None) -> int:
        executed = 0
        while True:
            while self._heap and self._heap[0][1] in self._cancelled:
                heapq.heappop(self._heap)
            if not self._heap or (until is not None and self._heap[0][0] > until):
                if until is not None and self.now < until:
                    self.now = until
                return executed
            if executed == max_events:
                return executed
            self.now, _, callback, args = heapq.heappop(self._heap)
            callback(*args)
            executed += 1


class ReferenceTimer:
    """Cancel + reschedule: each ``arm`` is a fresh ``schedule_at``."""

    def __init__(self, scheduler: ReferenceScheduler, callback) -> None:
        self._scheduler = scheduler
        self._callback = callback
        self._pending = None

    def arm(self, deadline: float) -> None:
        self.disarm()
        self._pending = self._scheduler.schedule_at(deadline, self._fire)

    def disarm(self) -> None:
        if self._pending is not None:
            self._scheduler._cancelled.add(self._pending)
            self._pending = None

    def _fire(self) -> None:
        self._pending = None
        self._callback()


class KeepsSeqOnRearmTimer(LazyTimer):
    """Seeded bug: a re-armed timer keeps its old place among simultaneous
    events instead of moving behind everything scheduled since."""

    __slots__ = ()

    def arm(self, deadline: float) -> None:
        armed, seq = self._deadline is not None, self._seq
        super().arm(deadline)
        if armed:
            self._seq = seq


TICK = 0.25  # exact in binary, and coarse: most generated events share a timestamp
TIMERS = 2

#: (kind, timer, delay in ticks, offset of the first child op, child count):
#: a fired event executes its child ops, which always lie after it in the program.
OP = st.tuples(
    st.sampled_from(["schedule", "schedule_at", "push", "arm", "disarm"]),
    st.integers(0, 1),
    st.integers(0, 4),
    st.integers(0, 5),
    st.integers(0, 3),
)
PROGRAM = st.tuples(
    st.lists(OP, min_size=1, max_size=24),
    # What each timer's callback executes: (first op, count) — may re-arm itself.
    st.tuples(*[st.tuples(st.integers(0, 23), st.integers(0, 3))] * TIMERS),
    st.integers(1, 6),  # how many leading ops run before the first run()
    # Successive run(until, max_events) calls.
    st.lists(
        st.tuples(st.none() | st.integers(0, 12), st.none() | st.integers(0, 20)),
        min_size=1,
        max_size=3,
    ),
)


def real_world(timer_class=LazyTimer):
    scheduler = EventScheduler()
    return scheduler, scheduler.lane, functools.partial(timer_class, scheduler)


def reference_world():
    scheduler = ReferenceScheduler()
    return scheduler, scheduler, scheduler.timer


def run_program(world, program):
    """Drive one scheduler through ``program``; returns everything observable:
    the executed ``(time, label)`` sequence and ``(executed, clock)`` per run."""
    ops, timer_programs, prelude, runs = program
    scheduler, lane, make_timer = world
    log = []
    lane_floor = [0.0]  # the lane takes nondecreasing times only
    fuel = [120]  # programs may loop (a timer re-arming itself at delay 0)

    def fire(index):
        log.append((scheduler.now, index))
        first = index + 1 + ops[index][3]
        execute(range(first, first + ops[index][4]))

    def fire_timer(which):
        log.append((scheduler.now, f"timer{which}"))
        first, count = timer_programs[which]
        execute(range(first, first + count))

    timers = [make_timer(functools.partial(fire_timer, i)) for i in range(TIMERS)]

    def execute(indices):
        for index in indices:
            if index >= len(ops) or not fuel[0]:
                return
            fuel[0] -= 1
            kind, which, ticks = ops[index][:3]
            now = scheduler.now
            if kind == "schedule":
                scheduler.schedule(ticks * TICK, fire, index)
            elif kind == "schedule_at":
                scheduler.schedule_at(max(now, ticks * TICK), fire, index)
            elif kind == "push":
                lane_floor[0] = time = max(now + ticks * TICK, lane_floor[0])
                lane.push_at(time, fire, index)
            elif kind == "arm":
                timers[which].arm(now + ticks * TICK)
            else:
                timers[which].disarm()

    execute(range(prelude))
    clock = []
    for until, max_events in runs:
        executed = scheduler.run(None if until is None else until * TICK, max_events)
        clock.append((executed, scheduler.now))
    return log, clock


@settings(max_examples=300, deadline=None)
@given(program=PROGRAM)
def test_scheduler_matches_pure_heap_reference(program):
    """Random programs of ``schedule`` / ``schedule_at`` / lane ``push_at`` /
    timer ``arm`` / re-``arm`` / ``disarm`` — issued up front and from inside
    callbacks, mostly at equal timestamps, run in several ``run()`` calls with
    and without an event cap — execute identically on both schedulers."""
    assert run_program(real_world(), program) == run_program(reference_world(), program)


def test_reference_property_catches_a_seeded_tie_break_bug():
    buggy = functools.partial(real_world, KeepsSeqOnRearmTimer)
    find(
        PROGRAM,
        lambda program: run_program(buggy(), program)
        != run_program(reference_world(), program),
        settings=settings(
            max_examples=2000, derandomize=True, database=None, phases=(Phase.generate,)
        ),
    )
