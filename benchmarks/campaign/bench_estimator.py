"""Locally calibrated slice timing: the estimator every timing metric uses.

Two things make raw wall time useless on the hosts this runs on.  The host's
*speed* drifts by 30-100% over milliseconds to tens of minutes (neighbours on
the same cores, frequency): CPU time tracks wall time then, so it is not
scheduling.  And at other times the hypervisor *steals* the CPU outright
(11-40% of wall time seen): wall time inflates, CPU time does not.

The estimator therefore measures **CPU time** (this process's, plus that of
the children it reaps — pool workers, launched interpreters), which steal
never touches, and divides every short *slice* of it by the CPU cost of a
fixed reference kernel run immediately before and after the slice, with the
clock stopped:

    calibrated = cpu * K_REF / mean(kernel before, kernel after)

``K_REF`` is the kernel's quiet-host cost pinned as a constant, so calibrated
values keep the unit of seconds ("CPU-seconds on a quiet reference host").
Time spent waiting (fsync, pipes) is not in it; the traced run reports that
per layer on the wall clock.

The kernel is allocation-free — it creates no object the garbage collector
tracks, so it can never trigger a collection pass over the campaign's heap —
and cache-resident: see README.md for the measurements that chose it over a
memory-walking one.
"""

from __future__ import annotations

import os
import random
import signal
import statistics
import time
from typing import Callable, List, Optional, Sequence, Tuple

#: The kernel chases a fixed random cycle through this many boxed integers
#: (~160 KB of pointers plus int objects: resident in L2) this many times.
#: Both numbers are fixed: together they define the unit of work.
KERNEL_ELEMENTS = 4096
KERNEL_LAPS = 32

#: Quiet-host cost of one kernel call, in seconds.  Only scales calibrated
#: values back into seconds; any PR-to-PR comparison cancels it out.
K_REF = 0.0020


class ReferenceKernel:
    """A fixed, allocation-free unit of interpreter work."""

    def __init__(self) -> None:
        # One cycle through every index, in an order fixed by a private RNG
        # (never the workload seed: the kernel must be the same work in every
        # run).  ``ring[i]`` is the index visited after ``i``; index 0 ends a
        # lap, and the lap counter only ever holds cached small ints, so the
        # loop creates no object the collector tracks.
        order = list(range(1, KERNEL_ELEMENTS))
        random.Random(0xC0FFEE).shuffle(order)
        ring = [0] * KERNEL_ELEMENTS
        previous = 0
        for index in order:
            ring[previous] = index
            previous = index
        ring[previous] = 0
        self._ring = ring

    def __call__(self) -> Tuple[float, float]:
        """Run the kernel once; returns its (wall, CPU) cost in seconds."""
        ring = self._ring
        laps = KERNEL_LAPS
        wall = time.perf_counter()
        cpu = time.process_time()
        while laps:
            index = ring[0]
            while index:
                index = ring[index]
            laps -= 1
        return time.perf_counter() - wall, time.process_time() - cpu


class Slice:
    """One timed interval with the kernel readings on either side of it."""

    __slots__ = ("label", "start", "raw", "cpu", "before", "after")

    def __init__(
        self, label: str, start: float, raw: float, cpu: float,
        before: Tuple[float, float], after: Tuple[float, float],
    ) -> None:
        self.label = label
        self.start = start                 #: perf_counter() when the clock (re)started
        self.raw = raw                     #: wall seconds
        self.cpu = cpu                     #: CPU seconds of this process
        self.before = before               #: kernel (wall, CPU) before the slice
        self.after = after                 #: kernel (wall, CPU) after it

    @property
    def factor(self) -> float:
        """Quiet-host seconds per CPU second during this slice."""
        return K_REF / ((self.before[1] + self.after[1]) / 2.0)

    @property
    def wall_factor(self) -> float:
        """The same on the wall clock (spans carry wall timestamps)."""
        return K_REF / ((self.before[0] + self.after[0]) / 2.0)

    @property
    def calibrated(self) -> float:
        return self.cpu * self.factor


def children_cpu() -> float:
    """CPU seconds of every child this process has reaped so far."""
    times = os.times()
    return times.children_user + times.children_system


class SliceClock:
    """Cuts one run into calibrated slices.

    Slices end where the caller says (``switch``: batch entry and exit) and,
    in between, wherever a wall-clock timer fires: a slice bracketed only at
    its ends says nothing about a 250 ms batch during which the host changed
    speed twice, so ``SAMPLE_EVERY_S`` after each cut a ``SIGALRM`` handler
    cuts again.  Every cut stops the clock, optionally does untimed work,
    runs the kernel once (its reading closes one slice and opens the next)
    and restarts the clock.

    While a child process does the work (pool batches, set-up launches) the
    timer keeps cutting: the kernel's *CPU* cost is the same whether or not it
    shares the core, so the cuts sample the host's speed over exactly the time
    the child runs.  The children's CPU time arrives when they are reaped, as
    one number per clock, and is scaled by the mean factor of the slices,
    weighted by how long this process was off the CPU in each.
    """

    #: Longest a slice runs before the timer cuts it.
    SAMPLE_EVERY_S = 0.025

    def __init__(self, kernel: ReferenceKernel) -> None:
        self._kernel = kernel
        self.slices: List[Slice] = []
        self.child_cpu = 0.0
        self._label = ""
        self._busy = True
        self._before = (0.0, 0.0)
        self._started = 0.0
        self._started_cpu = 0.0
        self._children_before = 0.0
        self._previous_handler: object = None

    def start(self, label: str) -> None:
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_timer)
        self._children_before = children_cpu()
        self._label = label
        self._before = self._kernel()
        self._restart()

    def switch(self, label: str, untimed: Optional[Callable[[], None]] = None) -> None:
        """End the running slice; the next one is ``label``."""
        self._busy = True
        self._cut(untimed)
        self._label = label
        self._restart()

    def stop(self) -> None:
        """End the last slice, collect reaped children, hand the signal back."""
        self._busy = True
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._cut(None)
        self.child_cpu = children_cpu() - self._children_before
        signal.signal(signal.SIGALRM, self._previous_handler)

    def _cut(self, untimed: Optional[Callable[[], None]]) -> None:
        cpu = time.process_time() - self._started_cpu
        raw = time.perf_counter() - self._started
        if untimed is not None:
            untimed()
        after = self._kernel()
        self.slices.append(Slice(self._label, self._started, raw, cpu, self._before, after))
        self._before = after

    def _restart(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_EVERY_S)
        self._busy = False
        self._started = time.perf_counter()
        self._started_cpu = time.process_time()

    def _on_timer(self, signum, frame) -> None:
        # Runs between two bytecodes of whatever the main thread is doing.
        if not self._busy:
            self.switch(self._label)

    def calibrated(self) -> float:
        """Calibrated CPU seconds of this process and its reaped children."""
        own = sum(s.calibrated for s in self.slices)
        if not self.child_cpu:
            return own
        # A child can only have run while this process was off the CPU.
        waits = [max(1e-9, s.raw - s.cpu) for s in self.slices]
        factor = sum(w * s.factor for w, s in zip(waits, self.slices)) / sum(waits)
        return own + self.child_cpu * factor

    def raw(self) -> float:
        """Uncalibrated wall seconds."""
        return sum(s.raw for s in self.slices)


class Timing:
    """Raw (wall) and calibrated (CPU) seconds of one bracketed operation."""

    __slots__ = ("raw", "calibrated")

    def __init__(self, raw: float, calibrated: float) -> None:
        self.raw = raw
        self.calibrated = calibrated

    def per(self, count: int) -> "Timing":
        return Timing(self.raw / count, self.calibrated / count)


def timed(kernel: ReferenceKernel, operation: Callable[[], object]) -> Timing:
    """Run ``operation`` under its own clock (read-side operations)."""
    clock = SliceClock(kernel)
    clock.start("op")
    try:
        operation()
    finally:
        clock.stop()
    return Timing(clock.raw(), clock.calibrated())


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def relative_iqr(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the spread the acceptance protocol uses."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / middle if middle else 0.0
