"""Thread-safe metrics registry: counters, gauges and histograms.

The registry is the numeric substrate of the observability layer.  Design
constraints, in order:

1. **Deterministic by construction.**  Nothing here feeds back into the
   search: instrumented code only *writes* counters, and every consumer
   (sinks, the status CLI, run manifests) only *reads* them.  Telemetry-on
   runs are bit-identical to telemetry-off runs because the instrumented
   call sites never branch on a metric value and draw no randomness.
2. **Cheap enough for hot layers.**  Instrumentation happens at
   per-simulation / per-generation / per-batch granularity — never
   per-event — so the cost is a handful of dict updates against millions of
   simulated events (the benchmark harness pins the overhead under 2%).
3. **Snapshot / delta semantics.**  A snapshot is a plain JSON-safe dict;
   :func:`delta` against an earlier snapshot of the same registry yields
   what happened in between (how a phase span reports its own counts).

A process-global registry (:func:`get_registry`) lets hot layers record
without plumbing a handle through every constructor; :func:`set_enabled`
swaps in a no-op registry so benchmarks can measure the instrumentation
itself.  Worker *processes* (the ``process`` backend) have their own global
registry whose counts stay in the worker; the exec layer's submit-side
metrics cover that path.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, Optional

#: Version of the snapshot layout (folded into sink records and manifests).
METRICS_SCHEMA = 1

#: Snapshot shape: {"counters": {...}, "gauges": {...}, "histograms": {...}}.
Snapshot = Dict[str, Dict[str, Any]]


def _bucket_label(value: float) -> str:
    """Power-of-two bucket for a histogram observation.

    Buckets are keyed by ``floor(log2(value))`` so one scheme covers
    microsecond fsync latencies and hour-scale scenario walls alike; labels
    are strings because they travel through JSON.  Non-positive values share
    one underflow bucket.
    """
    if value <= 0.0:
        return "le0"
    return str(math.floor(math.log2(value)))


class _Histogram:
    """Streaming count/sum/min/max plus log2 bucket counts."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[str, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        label = _bucket_label(value)
        self.buckets[label] = self.buckets.get(label, 0) + 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": dict(self.buckets),
        }


class MetricsRegistry:
    """Named counters, gauges and histograms behind one lock.

    Metric names are dotted paths (``sim.events``, ``journal.append_s``);
    the Prometheus exporter rewrites the dots.  Counters are monotone adds,
    gauges are set/add levels, histograms aggregate observations.  All
    operations are thread-safe: the thread running the campaign, the process
    pool's dispatcher thread and (in a process that also serves the
    dashboard) its request threads share the process-global instance.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, _Histogram] = {}

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #

    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` (>= 0) to the counter ``name``."""
        if value < 0:
            raise ValueError(f"counters are monotone; cannot inc {name!r} by {value}")
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge_set(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def gauge_add(self, name: str, delta: float) -> None:
        with self._lock:
            self._gauges[name] = self._gauges.get(name, 0) + delta

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the histogram ``name``."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = _Histogram()
            histogram.observe(value)

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0)

    def gauge(self, name: str) -> float:
        with self._lock:
            return self._gauges.get(name, 0)

    def snapshot(self) -> Snapshot:
        """JSON-safe copy of every metric's current state."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: histogram.to_dict()
                    for name, histogram in self._histograms.items()
                },
            }

    def clear(self) -> None:
        """Drop every metric (test isolation)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


class NullRegistry(MetricsRegistry):
    """A registry that records nothing (telemetry disabled)."""

    def inc(self, name: str, value: float = 1) -> None:
        pass

    def gauge_set(self, name: str, value: float) -> None:
        pass

    def gauge_add(self, name: str, delta: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass


# ---------------------------------------------------------------------- #
# Snapshot differencing
# ---------------------------------------------------------------------- #


def empty_snapshot() -> Snapshot:
    return {"counters": {}, "gauges": {}, "histograms": {}}


def _hist_dict(payload: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    if payload is None:
        return {"count": 0, "sum": 0.0, "min": None, "max": None, "buckets": {}}
    return payload


def delta(current: Snapshot, since: Snapshot) -> Snapshot:
    """What happened between two snapshots of the *same* registry.

    ``since`` must be an earlier snapshot than ``current`` (registries only
    grow, so ``current``'s keys are a superset).  Counters and histogram
    count/sum/buckets are differenced; gauges and histogram min/max are
    levels, not increments, so the delta carries ``current``'s value
    verbatim.
    """
    counters = {}
    before_counters = since.get("counters", {})
    for name, value in current.get("counters", {}).items():
        diff = value - before_counters.get(name, 0)
        # Keys that appeared since the baseline are kept even at zero (an
        # ``inc(name, 0)`` creates the key): the delta names every metric
        # the interval touched.
        if diff or name not in before_counters:
            counters[name] = diff
    histograms = {}
    for name, payload in current.get("histograms", {}).items():
        before = _hist_dict(since.get("histograms", {}).get(name))
        buckets = {}
        for label, count in payload["buckets"].items():
            bucket_diff = count - before["buckets"].get(label, 0)
            if bucket_diff:
                buckets[label] = bucket_diff
        diff_count = payload["count"] - before["count"]
        if diff_count or buckets:
            histograms[name] = {
                "count": diff_count,
                "sum": payload["sum"] - before["sum"],
                "min": payload["min"],
                "max": payload["max"],
                "buckets": buckets,
            }
    return {
        "counters": counters,
        "gauges": dict(current.get("gauges", {})),
        "histograms": histograms,
    }


# ---------------------------------------------------------------------- #
# Process-global registry
# ---------------------------------------------------------------------- #

_REGISTRY = MetricsRegistry()
_NULL_REGISTRY = NullRegistry()
_ENABLED = True


def get_registry() -> MetricsRegistry:
    """The process-global registry instrumented call sites write to."""
    return _REGISTRY if _ENABLED else _NULL_REGISTRY


def set_enabled(enabled: bool) -> bool:
    """Toggle global instrumentation; returns the previous setting.

    With telemetry disabled :func:`get_registry` hands out a no-op registry,
    which is how the benchmark harness measures the cost of the
    instrumentation itself.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


def reset_registry() -> MetricsRegistry:
    """Replace the global registry with a fresh one (test isolation)."""
    global _REGISTRY
    _REGISTRY = MetricsRegistry()
    return _REGISTRY
