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
:class:`LazyTimer` objects, which move a deadline instead.  Two structures
hold entries, because every GA generation bottoms out in millions of them:

* the heap, for :meth:`EventScheduler.schedule` /
  :meth:`EventScheduler.schedule_at` and timer bookkeeping entries;
* :class:`FifoLane` deques, for event streams whose times are pushed in
  nondecreasing order (bottleneck service completions, propagation-delayed
  deliveries, returning ACKs, pre-sorted cross-traffic injections).  Lanes
  are merged with the heap at pop time by the global ``(time, seq)`` key, so
  the execution order is exactly what a pure-heap scheduler would produce —
  including tie-breaks (``tests/test_engine.py`` holds the reference).

What the events move is the gateway FIFO's content: ``Packet``s of the flow
under test and cross-traffic admission times (plain floats).  A cross
injection is one lane event; its sink arrival is no event at all: the link
records it at service time (see :mod:`repro.netsim.link`).
"""

from __future__ import annotations

import heapq
from collections import deque
from math import isfinite
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

    @property
    def deadline(self) -> Optional[float]:
        """The live deadline, or None when the timer is not armed."""
        return self._deadline

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
        try:
            self._entry_times.remove(time)
        except ValueError:  # pragma: no cover - defensive
            pass
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
    """A monotone fast lane of events, merged with the scheduler's heap.

    A lane accepts events whose absolute times are pushed in nondecreasing
    order (each stream of fixed-delay or pre-sorted events satisfies this).
    Pushing and popping are O(1) deque operations instead of O(log n) heap
    operations.

    Lanes share the scheduler's insertion-sequence counter, so merging the
    lane heads with the heap head by ``(time, seq)`` reproduces the exact
    execution order — tie-breaks included — of scheduling every event
    through the heap.

    Create lanes via :meth:`EventScheduler.fifo_lane` before calling
    :meth:`EventScheduler.run`.
    """

    __slots__ = ("_scheduler", "_events", "_last_time")

    def __init__(self, scheduler: "EventScheduler") -> None:
        self._scheduler = scheduler
        self._events: Deque[_Entry] = deque()
        self._last_time = 0.0

    def __len__(self) -> int:
        return len(self._events)

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

    __slots__ = ("now", "_seq", "_heap", "_lanes", "_running")

    def __init__(self) -> None:
        #: Current simulation time in seconds.  A plain attribute rather than
        #: a property: it is read on nearly every event callback, and the
        #: property indirection was measurable.  Treat as read-only.
        self.now = 0.0
        self._seq = 0
        self._heap: List[_Entry] = []
        self._lanes: List[FifoLane] = []
        self._running = False

    def fifo_lane(self) -> FifoLane:
        """Create a new monotone fast lane merged into this scheduler.

        Lanes must be created before :meth:`run` starts (the run loop
        snapshots the lane set once for speed).
        """
        if self._running:
            raise RuntimeError("cannot create a lane while the scheduler is running")
        lane = FifoLane(self)
        self._lanes.append(lane)
        return lane

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
        lanes = [lane._events for lane in self._lanes]
        heappop = heapq.heappop
        horizon = float("inf") if until is None else until
        budget = -1 if max_events is None else max_events
        try:
            while True:
                # Select the earliest event across the heap and every lane.
                # Entries compare by (time, seq); seqs are unique, so the
                # comparison never reaches the non-orderable fields.
                entry = heap[0] if heap else None
                winner = None
                for lane_events in lanes:
                    if lane_events:
                        head = lane_events[0]
                        if entry is None or head < entry:
                            entry = head
                            winner = lane_events
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
