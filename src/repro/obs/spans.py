"""Phase-span tracer: nested timed phases with metric attribution.

A *span* is one timed phase of a campaign — ``campaign`` → ``scenario`` →
``generation`` → ``eval-batch`` — opened with :meth:`PhaseTracer.span` and
closed when the ``with`` block exits.  Each span records wall time plus the
*registry counter delta* observed while it was open, attributing work
(simulations run, events executed, cache hits) to the phase that did it.

A campaign process opens and closes its spans on one thread (the one running
the scenarios), so spans nest on one plain stack and sibling spans partition
the counter movement exactly.  The per-phase totals keep their lock:
:meth:`PhaseTracer.summary` is a public read not tied to that thread.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional

from .metrics import MetricsRegistry, Snapshot, delta, get_registry

#: Keys every finished-span record carries.
SPAN_FIELDS = ("phase", "name", "wall_s", "depth", "counters")


class Span:
    """One open phase.  Created by :meth:`PhaseTracer.span`, not directly."""

    __slots__ = (
        "phase",
        "name",
        "depth",
        "_tracer",
        "_started",
        "_baseline",
        "record",
    )

    def __init__(
        self,
        tracer: "PhaseTracer",
        phase: str,
        name: str,
        depth: int,
        baseline: Snapshot,
    ) -> None:
        self.phase = phase
        self.name = name
        self.depth = depth
        self._tracer = tracer
        self._started = time.perf_counter()
        self._baseline = baseline
        #: Populated on exit: the finished-span record (also handed to the
        #: tracer's on_close callback).
        self.record: Optional[Dict[str, Any]] = None

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._close(self)

    def _finish(self, registry: MetricsRegistry) -> Dict[str, Any]:
        moved = delta(registry.snapshot(), self._baseline)
        self.record = {
            "phase": self.phase,
            "name": self.name,
            "wall_s": time.perf_counter() - self._started,
            "depth": self.depth,
            "counters": moved["counters"],
        }
        return self.record


class PhaseTracer:
    """Opens/closes nested spans and keeps per-phase aggregates.

    ``on_close`` (if given) receives each finished-span record — the sink
    layer uses it to stream span records into ``metrics.jsonl``.  Aggregates
    (:meth:`summary`) survive after spans close and feed the run manifest's
    phase table.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        on_close: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> None:
        self._registry = registry
        self._on_close = on_close
        self._stack: List[Span] = []
        self._lock = threading.Lock()
        self._totals: Dict[str, Dict[str, Any]] = {}

    def _registry_now(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    def span(self, phase: str, name: str = "") -> Span:
        """Open a span; use as ``with tracer.span("generation", "gen-3"):``."""
        registry = self._registry_now()
        opened = Span(self, phase, name, len(self._stack), registry.snapshot())
        self._stack.append(opened)
        return opened

    def _close(self, span: Span) -> None:
        # Tolerate out-of-order closes (an exception unwinding several
        # levels): pop down to and including this span.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        record = span._finish(self._registry_now())
        with self._lock:
            totals = self._totals.get(span.phase)
            if totals is None:
                totals = self._totals[span.phase] = {
                    "count": 0,
                    "wall_s": 0.0,
                    "max_wall_s": 0.0,
                }
            totals["count"] += 1
            totals["wall_s"] += record["wall_s"]
            if record["wall_s"] > totals["max_wall_s"]:
                totals["max_wall_s"] = record["wall_s"]
        if self._on_close is not None:
            self._on_close(record)

    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def summary(self) -> Dict[str, Dict[str, Any]]:
        """Per-phase aggregate: span count, total and max wall seconds."""
        with self._lock:
            return {
                phase: dict(totals) for phase, totals in sorted(self._totals.items())
            }
