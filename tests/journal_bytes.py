"""Print a corpus's journal bytes per candidate, by record type (markdown).

``python tests/journal_bytes.py <corpus-dir>`` — CI appends the tables to the
job summary so "where did the bytes go" is readable per run.  A candidate is
one scored trace (simulated or cache-served), as the journaled scenario
outcomes count them.
A second table splits the ``generation_checkpoint`` bytes by what they hold
(each part measured as its own canonical JSON; "other" is the rest of the
line): the place to look for the next durability lever.  The "inline
outcomes" rows are the result summaries and scores individuals carry
themselves: 0 once
checkpoints name each outcome by reference to the cache op that journaled
it, non-zero in older journals; the line under the table counts both kinds.
A third table splits the trace bytes by record type: the ``traces`` tables
(each trace the first time its file names it), the digests that name traces
in payloads, and the share of trace occurrences written as a reference to a
trace an earlier record carried (:mod:`repro.journal.codec`).
Below the tables: read amplification, the journal bytes the campaign's
processes parsed (``journal.bytes_scanned`` in the last telemetry snapshot of
each process that left one) per byte of journal on disk.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.journal import CampaignJournal  # noqa: E402
from repro.journal.codec import deflate, named_digests  # noqa: E402
from repro.journal.events import canonical_json  # noqa: E402
from repro.obs.sinks import METRICS_FILENAME, read_metrics  # noqa: E402


def checkpoint_fields(data: dict, table_bytes: int) -> dict:
    """One ``generation_checkpoint``'s bytes by snapshot field."""
    fuzzer = data.get("fuzzer", {})
    individuals = [individual for island in fuzzer.get("islands", []) for individual in island]

    def size(value) -> int:
        return len(canonical_json(value))

    inline = [individual for individual in individuals if "score" in individual]
    return {
        "island traces (digests or inline)": sum(
            size(individual.get("trace")) for individual in individuals
        ),
        "trace table": table_bytes,
        "inline outcomes: result summaries": sum(
            size(individual.get("result_summary")) for individual in inline
        ),
        "inline outcomes: scores": sum(size(individual["score"]) for individual in inline),
        "rng_state": size(fuzzer.get("rng_state")),
        "history": size(fuzzer.get("history")),
        "cache ops": size(data.get("cache", {}).get("ops", [])),
    }


def dangling_refs(records) -> list:
    """``(seq, digest)`` for each digest a record names before any record
    (in fold order, itself included) carried it: empty for a journal every
    reader, from scratch or following the file, can inflate."""
    carried, dangling = set(), []
    for record in sorted(records, key=lambda r: (r.seq, r.type, r.dedup_key())):
        carried.update(record.traces)
        dangling += [
            (record.seq, digest)
            for digest in named_digests(record.type, record.data)
            if digest not in carried
        ]
    return dangling


def main(corpus_dir: str) -> int:
    by_type: dict = {}
    by_field: dict = {}
    individuals = {"inline": 0, "by reference": 0}
    #: scenario id -> its journaled outcome (a re-run scenario's last one).
    outcomes: dict = {}
    #: record type -> [table bytes, reference bytes, traces named, by reference]
    traces: dict = {}
    for record in CampaignJournal(CampaignJournal.corpus_path(corpus_dir)).records():
        size = len(record.to_line())
        by_type[record.type] = by_type.get(record.type, 0) + size
        names = named_digests(record.type, record.data)
        inline = deflate(record.type, record.data, ())[2]   # schema-1 records
        if names or inline:
            row = traces.setdefault(record.type, [0, 0, 0, 0])
            row[0] += len(record.traces_json())
            row[1] += sum(len(canonical_json(name)) for name in names)
            row[2] += len(names) + inline
            row[3] += len(names) - len(record.traces)
        if record.type == "scenario_complete":
            outcomes[record.data["scenario_id"]] = record.data["outcome"]
        elif record.type == "generation_checkpoint":
            fields = checkpoint_fields(record.data, len(record.traces_json()))
            for island in record.data.get("fuzzer", {}).get("islands", []):
                for individual in island:
                    individuals["inline" if "score" in individual else "by reference"] += 1
            fields["other"] = size - sum(fields.values())
            for name, part in fields.items():
                by_field[name] = by_field.get(name, 0) + part
    candidates = sum(o["evaluations"] + o["cache_hits"] for o in outcomes.values())
    print(f"### Journal bytes per candidate — `{corpus_dir}` ({candidates} candidates)\n")
    print("| record type | bytes | bytes / candidate |")
    print("|---|---:|---:|")
    for name, size in sorted(by_type.items(), key=lambda item: (-item[1], item[0])):
        print(f"| `{name}` | {size} | {size / candidates:.0f} |")
    total = sum(by_type.values())
    print(f"| **total** | {total} | {total / candidates:.0f} |")
    checkpoints = by_type.get("generation_checkpoint", 0)
    if checkpoints:
        print("\n| `generation_checkpoint` field | bytes | bytes / candidate | share |")
        print("|---|---:|---:|---:|")
        for name, size in sorted(by_field.items(), key=lambda item: (-item[1], item[0])):
            print(f"| {name} | {size} | {size / candidates:.0f} | {size / checkpoints:.1%} |")
        print(
            f"\ncheckpoint individuals: {individuals['by reference']} with the outcome "
            f"by reference, {individuals['inline']} inline"
        )
    if traces:
        print("\n| trace bytes by record type | tables | references | traces named | by reference |")
        print("|---|---:|---:|---:|---:|")
        for name, (table, refs, named, by_ref) in sorted(traces.items()):
            print(f"| `{name}` | {table} | {refs} | {named} | {by_ref / named:.1%} |")
        table, refs, named, by_ref = (sum(row[i] for row in traces.values()) for i in range(4))
        print(f"| **total** | {table} | {refs} | {named} | {by_ref / max(1, named):.1%} |")
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
