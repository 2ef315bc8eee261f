"""Phase-span tracer: timed phases with metric attribution.

A *span* is one timed phase of a campaign (a campaign opens one per
``scenario``), opened with :meth:`PhaseTracer.span` and closed when the
``with`` block exits, normally or by an exception.  Each span records wall
time plus the *registry counter delta* observed while it was open,
attributing work (simulations run, events executed, cache hits) to the phase
that did it.  Spans of one campaign run one after another on the thread
running the scenarios, so sibling spans partition the counter movement
exactly.  The per-phase totals keep their lock:
:meth:`PhaseTracer.summary` is a public read not tied to that thread.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Any, Callable, Dict, Iterator, Optional

from .metrics import delta, get_registry

#: Keys every finished-span record carries.
SPAN_FIELDS = ("phase", "name", "wall_s", "counters")


class PhaseTracer:
    """Times spans and keeps per-phase aggregates.

    ``on_close`` (if given) receives each finished-span record — the sink
    layer uses it to stream span records into ``metrics.jsonl``.  Aggregates
    (:meth:`summary`) survive after spans close and feed the phase table of
    the ``campaign_complete`` record.
    """

    def __init__(self, on_close: Optional[Callable[[Dict[str, Any]], None]] = None) -> None:
        self._on_close = on_close
        self._lock = threading.Lock()
        self._totals: Dict[str, Dict[str, Any]] = {}

    @contextlib.contextmanager
    def span(self, phase: str, name: str = "") -> Iterator[None]:
        """Time a phase; use as ``with tracer.span("scenario", "reno/..."):``."""
        baseline = get_registry().snapshot()
        started = time.perf_counter()
        try:
            yield
        finally:
            record = {
                "phase": phase,
                "name": name,
                "wall_s": time.perf_counter() - started,
                "counters": delta(get_registry().snapshot(), baseline)["counters"],
            }
            with self._lock:
                totals = self._totals.setdefault(
                    phase, {"count": 0, "wall_s": 0.0, "max_wall_s": 0.0}
                )
                totals["count"] += 1
                totals["wall_s"] += record["wall_s"]
                totals["max_wall_s"] = max(totals["max_wall_s"], record["wall_s"])
            if self._on_close is not None:
                self._on_close(record)

    def summary(self) -> Dict[str, Dict[str, Any]]:
        """Per-phase aggregate: span count, total and max wall seconds."""
        with self._lock:
            return {
                phase: dict(totals) for phase, totals in sorted(self._totals.items())
            }
