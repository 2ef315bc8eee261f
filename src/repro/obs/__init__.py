"""Observability: metrics, phase tracing, telemetry sinks and run manifests.

The layer the ROADMAP's live-dashboard item builds on.  Four rules keep it
safe to leave on everywhere:

1. strictly observational — instrumented code only writes counters, nothing
   in the search reads them back (telemetry-on runs are bit-identical to
   telemetry-off; the golden bit-identity test enforces it);
2. cheap — hot layers record at per-simulation/per-batch/per-generation
   granularity, never per-event (<2% overhead, benchmark-gated);
3. crash-tolerant, not crash-proof — telemetry files are unfsync'd and
   readers tolerate torn tails (durability lives in ``repro.journal``);
4. queryable — ``metrics.jsonl`` and ``run_manifest.json`` are
   machine-readable artifacts, rendered live by ``repro-campaign status``
   (``--prometheus``, like ``/metrics``, renders the latest snapshot).
"""

from .console import Console, add_console_flags
from .manifest import (
    MANIFEST_FILENAME,
    build_manifest,
    read_manifest,
    spec_fingerprint,
    write_manifest,
)
from .metrics import (
    METRICS_SCHEMA,
    MetricsRegistry,
    NullRegistry,
    delta,
    empty_snapshot,
    get_registry,
    reset_registry,
    set_enabled,
)
from .sinks import (
    METRICS_FILENAME,
    MetricsJsonlSink,
    latest_snapshot,
    prometheus_text,
    read_metrics,
    tail_metrics_records,
)
from .spans import PhaseTracer
from .status import (
    StatusWatcher,
    collect_status,
    fold_status,
    format_status,
    status_json,
)
from .telemetry import CampaignTelemetry

__all__ = [
    "Console",
    "add_console_flags",
    "MANIFEST_FILENAME",
    "build_manifest",
    "read_manifest",
    "spec_fingerprint",
    "write_manifest",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "NullRegistry",
    "delta",
    "empty_snapshot",
    "get_registry",
    "reset_registry",
    "set_enabled",
    "METRICS_FILENAME",
    "MetricsJsonlSink",
    "latest_snapshot",
    "prometheus_text",
    "read_metrics",
    "tail_metrics_records",
    "PhaseTracer",
    "StatusWatcher",
    "collect_status",
    "fold_status",
    "format_status",
    "status_json",
    "CampaignTelemetry",
]
