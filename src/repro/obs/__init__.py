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
