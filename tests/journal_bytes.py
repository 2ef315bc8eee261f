"""Print a corpus's journal bytes per candidate, by record type (markdown).

``python tests/journal_bytes.py <corpus-dir>`` — CI appends the table to the
job summary so "where did the bytes go" is readable per run.  A candidate is
one scored trace (simulated or cache-served), as ``report.json`` counts them.
Below the table: read amplification, the journal bytes the campaign's
processes parsed (``journal.bytes_scanned`` in the last telemetry snapshot of
each process that left one) per byte of journal on disk.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.journal import CampaignJournal  # noqa: E402
from repro.obs.sinks import METRICS_FILENAME, read_metrics  # noqa: E402


def main(corpus_dir: str) -> int:
    with open(os.path.join(corpus_dir, "report.json"), "r", encoding="utf-8") as handle:
        report = json.load(handle)
    candidates = report["total_evaluations"] + report["total_cache_hits"]
    by_type: dict = {}
    for record in CampaignJournal(CampaignJournal.corpus_path(corpus_dir)).records():
        by_type[record.type] = by_type.get(record.type, 0) + len(record.to_line())
    print(f"### Journal bytes per candidate — `{corpus_dir}` ({candidates} candidates)\n")
    print("| record type | bytes | bytes / candidate |")
    print("|---|---:|---:|")
    for name, size in sorted(by_type.items(), key=lambda item: (-item[1], item[0])):
        print(f"| `{name}` | {size} | {size / candidates:.0f} |")
    total = sum(by_type.values())
    print(f"| **total** | {total} | {total / candidates:.0f} |")
    scanned = {}
    for record in read_metrics(os.path.join(corpus_dir, METRICS_FILENAME)):
        if record.get("type") == "metrics":
            counters = (record.get("registry") or {}).get("counters", {})
            scanned[record.get("worker")] = counters.get("journal.bytes_scanned", 0)
    if scanned and total:
        print(
            f"\nread amplification: {sum(scanned.values()) / total:.2f}x "
            f"({sum(scanned.values())} journal bytes parsed by {len(scanned)} process(es))"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
