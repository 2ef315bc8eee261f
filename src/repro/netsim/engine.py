"""Discrete-event simulation engine.

The engine is a classic event-heap scheduler: callbacks are scheduled at
absolute simulation times and executed in time order.  Ties are broken by
insertion order so repeated runs with the same inputs are fully
deterministic, which is a hard requirement for the genetic algorithm
(identical traces must produce identical scores across generations,
see paper section 3.6).

There is one event primitive: an entry ``(time, seq, timer-or-None,
callback, args)``, where ``seq`` is the global insertion number claimed when
the event is scheduled.  Events cannot be cancelled; the two things TCP needs
to take back — the retransmission and delayed-ACK timers — are
:class:`LazyTimer` objects, which move a deadline instead.  Three sources
hold events, because every GA generation bottoms out in millions of them:

* the heap, for :meth:`EventScheduler.schedule` /
  :meth:`EventScheduler.schedule_at` and timer bookkeeping entries;
* the propagation lane (:class:`FifoLane`), for deliveries and returning
  ACKs, pushed in nondecreasing time order;
* the bottleneck link's own schedule (a link sets itself as ``_link``):
  cross arrivals, service completions and transmission opportunities.  When
  ``link.head``, its next ``(time, seq)`` or None, is the earliest key and
  due by the horizon, ``link.run_events(bound, horizon, budget)`` runs every
  link event before the entry ``bound`` (None: no other), by ``horizon`` and
  within ``budget`` (negative: no cap), at least one; it leaves ``now`` at
  the last and returns the count.

All three are keyed by ``(time, seq)`` and share the ``seq`` counter, so the
run loop executes exactly what a pure-heap scheduler would — tie-breaks
included (``tests/test_engine.py`` and ``tests/test_link_schedule.py`` hold
the references).
"""

from __future__ import annotations

import heapq
from collections import deque
from math import isfinite
from sys import float_info
from typing import Any, Callable, Deque, Iterable, List, Optional, Tuple

#: One scheduled event: (time, insertion seq, timer-or-None, callback, args).
#: A :class:`LazyTimer` bookkeeping entry carries the timer and no callback.
_Entry = Tuple[float, int, Optional["LazyTimer"], Optional[Callable[..., None]], tuple]


def sorted_input_times(times: Iterable[float], what: str) -> List[float]:
    """``times`` as sorted floats; the one rule for every time a run is given.

    Each must be finite and non-negative: a NaN at the head of a lane never
    wins the run loop's ``(time, seq)`` comparison, so it would silently
    block every later event.
    """
    ordered = sorted(map(float, times))
    if ordered and (ordered[0] < 0 or not all(map(isfinite, ordered))):
        raise ValueError(f"{what} must be finite and non-negative")
    return ordered


class LazyTimer:
    """A restartable timer that avoids one heap event per restart.

    TCP restarts its retransmission and delayed-ACK timers far more often
    than they fire.  A ``LazyTimer`` keeps the authoritative ``(deadline,
    seq)`` pair on the timer itself: restarting is an attribute update plus a
    sequence-number claim, and a heap *bookkeeping entry* is only pushed when
    no pending entry is early enough to wake the scheduler by the deadline.
    A popped bookkeeping entry whose key does not match the live deadline
    re-pushes itself at the current key and is not executed or counted.

    Equivalence with cancel+reschedule: :meth:`arm` claims the same global
    sequence number the replacement ``schedule()`` call would have consumed,
    and the callback runs exactly when an entry with key ``(deadline, seq)``
    pops — so execution order, tie-breaks included, is identical.
    """

    __slots__ = ("_scheduler", "_callback", "_deadline", "_seq", "_entry_times")

    def __init__(self, scheduler: "EventScheduler", callback: Callable[[], None]) -> None:
        self._scheduler = scheduler
        self._callback = callback
        self._deadline: Optional[float] = None
        self._seq = -1
        self._entry_times: List[float] = []
        scheduler._timers.append(self)

    def arm(self, deadline: float) -> None:
        """(Re)start the timer to fire at absolute time ``deadline``."""
        scheduler = self._scheduler
        if deadline < scheduler.now:
            raise ValueError(
                f"cannot arm timer at {deadline:.6f}, current time is {scheduler.now:.6f}"
            )
        self._deadline = deadline
        self._seq = scheduler._seq
        scheduler._seq += 1
        entry_times = self._entry_times
        if not entry_times or min(entry_times) > deadline:
            heapq.heappush(scheduler._heap, (deadline, self._seq, self, None, None))
            entry_times.append(deadline)

    def disarm(self) -> None:
        """Stop the timer; any pending bookkeeping entries die silently."""
        self._deadline = None

    def _fires_at(self, time: float, seq: int) -> bool:
        """Whether a bookkeeping entry keyed ``(time, seq)`` is the one that fires."""
        return self._deadline == time and self._seq == seq

    def _on_pop(self, time: float, seq: int) -> bool:
        """Handle a popped bookkeeping entry; True when the timer must fire."""
        self._entry_times.remove(time)
        deadline = self._deadline
        if deadline is None:
            return False
        if self._fires_at(time, seq):
            # Fired at the live key: consume the timer (the callback may
            # re-arm it).
            self._deadline = None
            return True
        # Stale entry; make sure some entry wakes the scheduler at (or
        # before) the moved deadline, then resolve again on that pop.
        entry_times = self._entry_times
        if not entry_times or min(entry_times) > deadline:
            heapq.heappush(self._scheduler._heap, (deadline, self._seq, self, None, None))
            entry_times.append(deadline)
        return False


class FifoLane:
    """The propagation lane: events pushed in nondecreasing time order.

    Deliveries and ACKs land a fixed propagation delay after a nondecreasing
    clock, so pushing and popping are O(1) deque operations instead of
    O(log n) heap operations.
    """

    __slots__ = ("_scheduler", "_events", "_last_time")

    def __init__(self, scheduler: "EventScheduler") -> None:
        self._scheduler = scheduler
        self._events: Deque[_Entry] = deque()
        self._last_time = 0.0

    def push_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Append ``callback(*args)`` to fire at absolute simulation ``time``."""
        scheduler = self._scheduler
        if time < scheduler.now:
            raise ValueError(
                f"cannot schedule event at {time:.6f}, current time is {scheduler.now:.6f}"
            )
        if time < self._last_time:
            raise ValueError(
                f"lane events must be pushed in time order "
                f"(got {time:.6f} after {self._last_time:.6f})"
            )
        self._last_time = time
        self._events.append((time, scheduler._seq, None, callback, args))
        scheduler._seq += 1


class EventScheduler:
    """Priority-queue based discrete event scheduler.

    Example
    -------
    >>> sched = EventScheduler()
    >>> fired = []
    >>> sched.schedule(1.0, fired.append, "a")
    >>> sched.schedule(0.5, fired.append, "b")
    >>> sched.run(until=2.0)
    2
    >>> fired
    ['b', 'a']
    """

    __slots__ = ("now", "_seq", "_heap", "lane", "_link", "_timers", "_running")

    def __init__(self) -> None:
        #: Current simulation time in seconds.  A plain attribute rather than
        #: a property: it is read on nearly every event callback, and the
        #: property indirection was measurable.  Treat as read-only.
        self.now = 0.0
        self._seq = 0
        self._heap: List[_Entry] = []
        self.lane = FifoLane(self)
        self._link: Any = None
        self._timers: List[LazyTimer] = []
        self._running = False

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule event in the past (delay={delay})")
        self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` to run at absolute simulation ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule event at {time:.6f}, current time is {self.now:.6f}"
            )
        heapq.heappush(self._heap, (time, self._seq, None, callback, args))
        self._seq += 1

    def timer(self, callback: Callable[[], None]) -> LazyTimer:
        """Create a restartable :class:`LazyTimer` bound to this scheduler."""
        return LazyTimer(self, callback)

    def clear(self) -> None:
        """Drop the pending events, the link and the timers' callbacks, which
        lead back here or to their owners (see ``DumbbellTopology.teardown``)."""
        self._heap.clear()
        self.lane._events.clear()
        self.lane._scheduler = self._link = None
        while self._timers:
            self._timers.pop()._callback = None

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events in time order.

        Parameters
        ----------
        until:
            Stop once the next event would be strictly after this time.  The
            clock is advanced to ``until`` only then — when nothing at or
            before the horizon is left to run.
        max_events:
            Safety valve: stop after this many events have been executed.
            A run it ends leaves the clock at the last executed event, so a
            caller can tell a truncated run (``now < until``) from a finished
            one.

        Returns
        -------
        int
            The number of events executed.
        """
        if self._running:
            raise RuntimeError("scheduler is already running")
        self._running = True
        executed = 0
        heap = self._heap
        lane = self.lane._events
        link = self._link
        heappop = heapq.heappop
        # The largest float, not inf: a link's exhausted stream sits at inf.
        horizon = float_info.max if until is None else min(until, float_info.max)
        budget = -1 if max_events is None else max_events
        try:
            while True:
                # Select the earliest event of the heap, the lane and the
                # link.  Entries compare by (time, seq); seqs are unique, so
                # the comparison never reaches the non-orderable fields.
                entry = heap[0] if heap else None
                winner = None
                if lane and (entry is None or lane[0] < entry):
                    entry = lane[0]
                    winner = lane
                if link is not None:
                    head = link.head
                    if head is not None and (entry is None or head < entry) and head[0] <= horizon:
                        if executed == budget:
                            break
                        executed += link.run_events(entry, horizon, budget - executed)
                        continue
                if entry is None or entry[0] > horizon:
                    if until is not None and self.now < until:
                        self.now = until
                    break
                time, seq, timer, callback, args = entry
                if executed == budget:
                    # The cap ends the run here — unless this is a dead or
                    # stale timer entry, which is no event: resolve it and
                    # look again, so the clock still reaches the horizon
                    # when nothing real is left before it.
                    if callback is None and not timer._fires_at(time, seq):
                        heappop(heap)
                        timer._on_pop(time, seq)
                        continue
                    break
                if callback is None:
                    # Lazy-timer bookkeeping entry (heap-only): resolve it;
                    # stale/dead entries are not executed or counted.
                    heappop(heap)
                    if timer._on_pop(time, seq):
                        self.now = time
                        timer._callback()
                        executed += 1
                    continue
                if winner is None:
                    heappop(heap)
                else:
                    winner.popleft()
                self.now = time
                callback(*args)
                executed += 1
        finally:
            self._running = False
        return executed
