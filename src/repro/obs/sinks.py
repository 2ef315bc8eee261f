"""Telemetry sinks: the ``metrics.jsonl`` stream and its Prometheus rendering.

Telemetry artifacts live next to the corpus they describe but are strictly
write-only from the campaign's point of view — nothing in the search ever
reads them back, so they cannot perturb results.  Unlike the journal, the
stream's appends are *not* fsync'd (losing the tail of a metrics stream on
a crash is acceptable; losing campaign state is not), and its one reader,
:func:`tail_metrics_records`, leaves a torn final line unread for the same
reason.  Prometheus text is rendered from its latest ``metrics`` record
(:func:`prometheus_text`), never stored.

``metrics.jsonl`` is a stream of one-object-per-line records.  Every record
has ``t`` (wall-clock seconds since the epoch — telemetry is the one place
wall time belongs; nothing digested ever sees it) and ``type``.  Record
types emitted today: ``campaign_start``, ``campaign_resume``,
``scenario_state``, ``generation``, ``span``, ``metrics`` (a full registry
snapshot), ``campaign_complete``.  Readers must ignore unknown types.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from pathlib import Path
from typing import IO, Any, Dict, List, Optional, Tuple, Union

from ..storage import read_appended, split_lines
from .metrics import METRICS_SCHEMA, MetricsRegistry, Snapshot

#: Default seconds between periodic full-snapshot records.
DEFAULT_SNAPSHOT_INTERVAL_S = 5.0

METRICS_FILENAME = "metrics.jsonl"


class MetricsJsonlSink:
    """Appends telemetry records to ``<dir>/metrics.jsonl``.

    The file (and its directory) is created by the first ``emit``, so a sink
    that never emits leaves nothing behind; the handle then stays open for
    the campaign's lifetime (line-buffered appends, no fsync).  ``emit``
    writes one record immediately;
    ``maybe_snapshot`` throttles full registry snapshots to at most one per
    ``interval_s`` unless forced (phase boundaries force one so the stream
    always ends on fresh numbers).
    """

    #: Throttle clock; an attribute so a test can step it by hand.
    clock = staticmethod(time.monotonic)

    def __init__(
        self,
        directory: Union[str, Path],
        interval_s: float = DEFAULT_SNAPSHOT_INTERVAL_S,
    ) -> None:
        self.path = Path(directory) / METRICS_FILENAME
        self.interval_s = interval_s
        # "Never": the monotonic clock's zero is arbitrary (often boot), so
        # no numeric sentinel is safely "long ago".
        self._last_snapshot: Optional[float] = None
        # A campaign emits from the one thread that runs it; the lock keeps
        # each record on its own line if a host program emits from another.
        self._lock = threading.Lock()
        self._handle: Optional[IO[str]] = None
        self._closed = False

    def emit(self, record_type: str, payload: Optional[Dict[str, Any]] = None) -> None:
        record = {"t": time.time(), "type": record_type}
        if payload:
            record.update(payload)
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            if self._closed:
                return
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(line)
            self._handle.flush()

    def maybe_snapshot(self, registry: MetricsRegistry, force: bool = False) -> bool:
        """Emit a ``metrics`` record if the interval elapsed (or forced)."""
        now = self.clock()
        if (
            not force
            and self._last_snapshot is not None
            and now - self._last_snapshot < self.interval_s
        ):
            return False
        self._last_snapshot = now
        self.emit(
            "metrics",
            {"schema": METRICS_SCHEMA, "registry": registry.snapshot()},
        )
        return True

    def close(self) -> None:
        with self._lock:
            self._closed = True
            if self._handle is not None:
                self._handle.close()

    def __enter__(self) -> "MetricsJsonlSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def tail_metrics_records(
    path: Union[str, Path], offset: int, starts: Optional[List[int]] = None
) -> Tuple[List[Dict[str, Any]], int]:
    """Read records appended since byte ``offset``; returns ``(records, new_offset)``.

    The one ``metrics.jsonl`` parser: :func:`read_metrics` is this from offset
    0, and ``status --watch``, ``/api/status`` and ``/api/stream`` carry the
    returned offset between polls instead of re-reading the whole stream.
    Only newline-terminated lines are consumed — the writer never fsyncs, so
    a crashed or still-running campaign may leave a partial final line; it
    stays unread and is picked up whole on a later poll.  Malformed
    *interior* lines are skipped: a metrics stream is advisory, unlike the
    journal, so corruption downgrades to missing data rather than an error.
    A file that shrank (rotation, truncation) is read again from the start;
    the returned offset is then smaller than the one passed in, which tells
    an accumulating caller to discard what it folded so far.  A missing file
    yields ``([], 0)``.  ``starts``, when given, gets the byte offset at which
    each returned record's line begins.

    A read is decoded once and its lines parsed as ``str``; a line that fails
    so (a BOM, a UTF-16 line) is retried on its bytes, and a read that is not
    UTF-8 is parsed line by line as bytes, so each line is kept or skipped
    exactly as ``json.loads`` of its bytes would.
    """
    try:
        with open(path, "rb") as handle:
            raw, offset = read_appended(handle, offset)
    except OSError:
        return [], 0
    byte_lines, remainder = split_lines(raw)
    try:
        lines: List[Any] = raw[: len(raw) - len(remainder)].decode("utf-8").split("\n")
    except UnicodeDecodeError:
        lines = byte_lines
    records: List[Dict[str, Any]] = []
    position = offset
    for line, original in zip(lines, byte_lines):
        try:
            record = json.loads(line)
        except ValueError:
            try:
                record = json.loads(original)
            except ValueError:
                record = None              # advisory stream: skip, don't raise
        if isinstance(record, dict) and "type" in record:
            records.append(record)
            if starts is not None:
                starts.append(position)
        position += len(original) + 1
    return records, position


def read_metrics(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Every complete record of a ``metrics.jsonl`` (``[]`` when missing)."""
    return tail_metrics_records(path, 0)[0]


def latest_snapshot(records: List[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """The registry snapshot of the last ``metrics`` record, if any."""
    for record in reversed(records):
        if record.get("type") == "metrics" and isinstance(record.get("registry"), dict):
            return record["registry"]
    return None


# ---------------------------------------------------------------------- #
# Prometheus text exposition
# ---------------------------------------------------------------------- #


@functools.lru_cache(maxsize=1024)
def _prom_name(name: str) -> str:
    """``sim.wall_s`` -> ``repro_sim_wall_s`` (Prometheus-legal); memoized,
    as the per-character sanitiser is most of a render's cost."""
    sanitized = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name.replace(".", "_")
    )
    return f"repro_{sanitized}"


def prometheus_text(snapshot: Snapshot) -> str:
    """Render a registry snapshot in the Prometheus text exposition format.

    Histograms export ``_count``/``_sum`` plus cumulative ``_bucket`` series
    with ``le`` bounds of ``2^(exponent+1)`` (each log2 bucket holds values
    in ``[2^e, 2^(e+1))``), matching how the registry buckets observations.
    """
    lines: List[str] = []
    for name in sorted(snapshot.get("counters", {})):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {snapshot['counters'][name]}")
    for name in sorted(snapshot.get("gauges", {})):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {snapshot['gauges'][name]}")
    for name in sorted(snapshot.get("histograms", {})):
        payload = snapshot["histograms"][name]
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} histogram")
        cumulative = 0
        numeric = sorted(
            (int(label), count)
            for label, count in payload["buckets"].items()
            if label != "le0"
        )
        underflow = payload["buckets"].get("le0", 0)
        if underflow:
            cumulative += underflow
            lines.append(f'{prom}_bucket{{le="0"}} {cumulative}')
        for exponent, count in numeric:
            cumulative += count
            bound = 2.0 ** (exponent + 1)
            lines.append(f'{prom}_bucket{{le="{bound}"}} {cumulative}')
        lines.append(f'{prom}_bucket{{le="+Inf"}} {payload["count"]}')
        lines.append(f"{prom}_count {payload['count']}")
        lines.append(f"{prom}_sum {payload['sum']}")
    return "\n".join(lines) + "\n"

