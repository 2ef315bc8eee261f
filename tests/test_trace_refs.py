"""A trace is journaled once: records name traces by content digest.

``trace_ref_journal.jsonl`` is a schema-2 fleet journal of a two-scenario
campaign (``reno`` and ``cubic`` traffic, population 4, 3 generations of
0.12 s, seed 7, ``seed_limit`` 2, ``lease_ttl`` 0.001).  It was made from an
uninterrupted ``run_fleet(workers=0)`` journal of that spec:

1. the records up to the first scenario's generation-1 checkpoint, compacted
   into one ``compaction_snapshot``;
2. a ``scenario_lease`` at epoch 2 for that scenario (a thief's claim);
3. the victim waking up: its epoch-1 ``behavior_delta`` and generation-2
   checkpoint, both fenced, the checkpoint carrying three traces no earlier
   record held;
4. ``run_fleet`` resuming the file, cut after its epoch-3 generation-2
   checkpoint, which names those three traces without carrying them.

It pins the fold (a fenced record's table still serves the thief) and the
resume (the uninterrupted run's digest and corpus).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil

import pytest
from journal_bytes import dangling_refs

from repro.campaign import CampaignRunner, CampaignSpec, CorpusStore, run_fleet
from repro.journal import CampaignJournal, JournalCorruption, JournalRecord, merge_records
from repro.journal.codec import deflate, inflate, named_digests, trace_digest
from repro.journal.events import canonical_json, make_record
from repro.journal.log import read_journal_view
from repro.obs.metrics import get_registry
from repro.serve.query import DashboardQuery
from repro.traces.trace import LinkTrace, TrafficTrace

FIXTURE = os.path.join(os.path.dirname(__file__), "trace_ref_journal.jsonl")
FIRST = "reno/traffic/throughput/base"
#: What the uninterrupted run of the fixture's spec gives, and its resume.
FIXTURE_RESUMED = {
    "digest": "f56cd81a19a1940c93a88fa156717ed5",
    "fingerprints": [
        "124e69654d6211dda1d7359233fe4d50", "3c5da7cec6088d6cecd57d36bc47f4ec",
        "6bcd10d0a23f13cbaeaad5dd486d3873", "7f416518df77cdeff3917ac0a42c34f8",
        "966ffbdbee5faae417e1f89bc62ad735", "9d3fa2ee5b4854b1b5ceb5a560948e2e",
    ],
}


def _fixture_copy(tmp_path) -> str:
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    shutil.copy(FIXTURE, CampaignJournal.corpus_path(str(corpus_dir)))
    return str(corpus_dir)


def _resume_fleet(corpus_dir: str) -> dict:
    spec = CampaignSpec.from_dict(read_journal_view(CampaignJournal.corpus_path(corpus_dir)).campaign["spec"])
    result = run_fleet(spec, corpus_dir, workers=0, register_attacks=False, telemetry=False)
    assert dangling_refs(CampaignJournal(CampaignJournal.corpus_path(corpus_dir)).records()) == []
    return {
        "digest": result.deterministic_digest(),
        "fingerprints": sorted(CorpusStore(corpus_dir).fingerprints()),
    }


class TestFixture:
    def test_its_fold_inflates_a_fenced_zombies_trace_for_the_thief(self):
        records = CampaignJournal(FIXTURE).records()
        assert [r.type for r in records] == [
            "compaction_snapshot", "scenario_lease", "behavior_delta", "generation_checkpoint",
            "campaign_resume", "scenario_lease", "behavior_delta", "generation_checkpoint",
        ]
        assert {r.schema for r in records} == {2}
        assert dangling_refs(records) == []
        snapshot, thief_lease, _, zombie, _, _, _, thief = records
        assert thief_lease.data["lease_epoch"] == 2
        assert (zombie.data["lease_epoch"], thief.data["lease_epoch"]) == (1, 3)
        assert zombie.data["generation"] == thief.data["generation"] == 2
        # The snapshot is self-contained; the zombie brings three new traces
        # and the thief names them, carrying nothing.
        assert set(named_digests(snapshot.type, snapshot.data)) == set(snapshot.traces)
        assert len(zombie.traces) == 3 and thief.traces == {}
        assert set(zombie.traces) <= set(named_digests(thief.type, thief.data))

        view = read_journal_view(FIXTURE)
        assert (view.fenced_records, view.compacted_records, view.record_count) == (2, 8, 8)
        checkpoint = view.checkpoints[FIRST]
        assert (checkpoint["generation"], checkpoint["lease_epoch"]) == (2, 3)
        individuals = [i for island in checkpoint["fuzzer"]["islands"] for i in island]
        assert [trace_digest(i["trace"]) for i in individuals] == named_digests(thief.type, thief.data)
        for digest, trace in zombie.traces.items():
            assert trace_digest(trace) == digest
        assert [h["generation"] for h in checkpoint["fuzzer"]["history"]] == [0, 1, 2]

    def test_it_resumes_to_the_uninterrupted_run(self, tmp_path):
        assert _resume_fleet(_fixture_copy(tmp_path)) == FIXTURE_RESUMED

    def test_it_compacts_to_one_self_contained_record_that_resumes_alike(self, tmp_path):
        corpus_dir = _fixture_copy(tmp_path)
        journal = CampaignJournal(CampaignJournal.corpus_path(corpus_dir))
        before = journal.replay()
        assert journal.compact()["records_after"] == 1
        (snapshot,) = journal.records()
        assert set(named_digests(snapshot.type, snapshot.data)) == set(snapshot.traces)
        assert journal.replay().pending_checkpoints() == before.pending_checkpoints()
        journal.close()
        assert _resume_fleet(corpus_dir) == FIXTURE_RESUMED


#: sha256 (16 hex digits) of each schema-1 fixture's whole folded view as
#: sorted-key JSON, as the code before trace references folded it.
LEGACY_FOLDS = {
    "legacy_full_dump_journal.jsonl": "5afe60d2d2f5a409",
    "legacy_list_timestamps_journal.jsonl": "af24ef23ff7651cc",
    "legacy_thread_mode_journal.jsonl": "0136dc7b01e1b420",
}


@pytest.mark.parametrize("name", sorted(LEGACY_FOLDS))
def test_a_schema_1_journal_folds_as_before_and_compacts_to_references(name, tmp_path):
    path = os.path.join(os.path.dirname(__file__), name)
    view = read_journal_view(path)
    folded = json.dumps(dataclasses.asdict(view), sort_keys=True).encode("utf-8")
    assert hashlib.sha256(folded).hexdigest()[:16] == LEGACY_FOLDS[name]
    copy = str(tmp_path / "journal.jsonl")
    shutil.copy(path, copy)
    with CampaignJournal(copy, fsync=False) as journal:
        journal.compact()
        (snapshot,) = journal.records()
        compacted = journal.replay()
    assert snapshot.schema == 2 and set(named_digests(snapshot.type, snapshot.data)) == set(snapshot.traces)
    assert compacted.pending_checkpoints() == view.pending_checkpoints()
    for field in ("behavior_deltas", "inserts_by_scenario", "completed", "caches"):
        assert getattr(compacted, field) == getattr(view, field), field


def _trace(*times, **metadata) -> dict:
    return TrafficTrace(list(times), duration=1.0, metadata=metadata, max_packets=8).to_dict()


def _insert(trace: dict, fingerprint: str = "fp") -> dict:
    return {"scenario_id": "s", "fingerprint": fingerprint, "new": True, "entry": {"trace": trace}}


def _checkpoint(generation: int, *traces: dict) -> dict:
    islands = [[{"trace": trace, "generation_born": 0, "origin": "seed"} for trace in traces]]
    return {"scenario_id": "s", "generation": generation, "fuzzer": {"islands": islands}}


class TestCodec:
    def test_the_digest_covers_every_field_of_the_dict(self):
        base = TrafficTrace([0.1, 0.2], duration=1.0, metadata={"origin": "seed"}, max_packets=4)
        variants = [
            base.with_timestamps([0.1, 0.3]),
            TrafficTrace([0.1, 0.2], duration=2.0, metadata={"origin": "seed"}, max_packets=4),
            TrafficTrace([0.1, 0.2], 1.0, mss_bytes=1000, metadata={"origin": "seed"}, max_packets=4),
            TrafficTrace([0.1, 0.2], duration=1.0, metadata={"origin": "mutation"}, max_packets=4),
            TrafficTrace([0.1, 0.2], duration=1.0, metadata={"origin": "seed"}, max_packets=5),
            LinkTrace([0.1, 0.2], duration=1.0, metadata={"origin": "seed"}),
        ]
        digests = {trace_digest(t.to_dict()) for t in [base, *variants]}
        assert len(digests) == 1 + len(variants)
        assert trace_digest(json.loads(json.dumps(base.to_dict()))) == trace_digest(base.to_dict())

    def test_deflate_leaves_the_payload_alone_and_inflate_rebuilds_it(self):
        a, b = _trace(0.1), _trace(0.2)
        payload = _checkpoint(3, a, b, a)
        frozen = json.dumps(payload, sort_keys=True)
        data, table, named = deflate("generation_checkpoint", payload, {trace_digest(b)})
        assert json.dumps(payload, sort_keys=True) == frozen
        assert named == 3 and table == {trace_digest(a): a}
        assert named_digests("generation_checkpoint", data) == [trace_digest(t) for t in (a, b, a)]
        assert inflate("generation_checkpoint", data, {**table, trace_digest(b): b}) == payload
        # A digest no table holds inflates to None; an inline trace passes.
        assert inflate("corpus_insert", _insert(trace_digest(a)), {})["entry"]["trace"] is None
        assert inflate("corpus_insert", _insert(a), {}) == _insert(a)


    @pytest.mark.parametrize("table", [{"d": 5}, ["d"], {}])
    def test_a_table_that_is_not_digests_to_traces_is_corruption(self, table):
        data, _, _ = deflate("corpus_insert", _insert(_trace(0.1)), ())
        record = JournalRecord(3, "corpus_insert", data)
        table_json = json.dumps(table, separators=(",", ":"))
        line = record._framed(canonical_json(data), table_json)[1]
        assert '"traces":' in line                  # framed, checksummed, and still refused
        with pytest.raises(JournalCorruption):
            JournalRecord.from_line(line)


class TestWriter:
    def test_a_trace_is_carried_once_per_file(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        trace = _trace(0.1, 0.5)
        digest = trace_digest(trace)
        journal = CampaignJournal(path, fsync=False)
        journal.append("campaign_start", {"campaign": "c"})
        first = journal.append("corpus_insert", _insert(trace))
        again = journal.append("generation_checkpoint", _checkpoint(0, trace, trace))
        assert first.traces == {digest: trace} and again.traces == {}
        assert first.data["entry"]["trace"] == digest
        journal.close()
        # A writer reopening the file (a resume) knows what the file holds.
        reopened = CampaignJournal(path, fsync=False)
        assert reopened.append("corpus_insert", _insert(trace, "fp2")).traces == {}
        # Compaction writes a new file whose one record carries every trace.
        reopened.compact()
        (snapshot,) = reopened.records()
        assert snapshot.traces == {digest: trace}
        assert reopened.append("corpus_insert", _insert(trace, "fp3")).traces == {}
        view = reopened.replay()
        assert [i["entry"]["trace"] for i in view.inserts] == [trace] * 3
        # Rotation starts a file that holds nothing.
        reopened.rotate()
        reopened.append("campaign_start", {"campaign": "d"})
        assert reopened.append("corpus_insert", _insert(trace)).traces == {digest: trace}

    def test_a_redone_record_collapses_onto_the_one_that_carried_its_trace(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        payload = _insert(_trace(0.3))
        with CampaignJournal(path, fsync=False) as journal:
            original = journal.append("corpus_insert", payload)
        with CampaignJournal(path, fsync=False) as resumed:
            redone = resumed.append("corpus_insert", payload)
            view = resumed.replay()
        assert original.traces and not redone.traces
        assert redone.dedup_key() == original.dedup_key()
        assert (view.record_count, view.duplicates, len(view.inserts)) == (1, 1, 1)
        assert view.inserts[0] == payload

    def test_a_failed_write_leaves_the_trace_unknown(self, tmp_path):
        journal = CampaignJournal(str(tmp_path / "journal.jsonl"), fsync=False)
        journal.append("campaign_start", {"campaign": "c"})
        write = journal._write_line

        def failing(payload):
            journal._write_line = write
            raise OSError("disk full")

        journal._write_line = failing
        with pytest.raises(OSError):
            journal.append("corpus_insert", _insert(_trace(0.4)))
        assert journal.append("corpus_insert", _insert(_trace(0.4))).traces

    def test_counters_split_table_bytes_and_references(self, tmp_path):
        registry = get_registry()
        before = registry.counter("journal.bytes.traces"), registry.counter("journal.trace_refs")
        journal = CampaignJournal(str(tmp_path / "journal.jsonl"), fsync=False)
        a, b = _trace(0.1), _trace(0.2)
        carried = journal.append("generation_checkpoint", _checkpoint(0, a, b, a))
        journal.append("corpus_insert", _insert(b))
        after = registry.counter("journal.bytes.traces"), registry.counter("journal.trace_refs")
        assert after[0] - before[0] == len(carried.traces_json())
        assert after[1] - before[1] == 2        # the second ``a``, then ``b``


class TestLostTraces:
    def test_an_observer_leaves_the_cell_or_entry_without_a_trace(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        lost = trace_digest(_trace(0.9))
        cell = {
            "cell": "c0", "signature": {}, "score": 1.0, "trace_fingerprint": "fp",
            "trace": lost, "provenance": {}, "visits": 1, "improvements": 0,
        }
        journal = CampaignJournal(CampaignJournal.corpus_path(str(corpus_dir)), fsync=False)
        journal.append("behavior_delta", {"scenario_id": "s", "generation": 0, "cells": {"c0": cell}})
        journal.append("corpus_insert", _insert(lost))
        view = read_journal_view(journal.path)
        assert view.behavior_cells["c0"]["trace"] is None
        assert view.inserts[0]["entry"]["trace"] is None
        assert "error" not in DashboardQuery(str(corpus_dir)).coverage()

    def test_a_checkpoint_naming_a_lost_trace_restarts_its_scenario(self, tmp_path):
        spec = CampaignSpec.from_dict({
            "name": "lost-trace", "ccas": ["reno"], "modes": ["traffic"],
            "objectives": ["throughput"], "conditions": [{"name": "base"}],
            "budget": {"population_size": 4, "generations": 3, "duration": 0.12},
            "seed": 7, "seed_limit": 0,
        })
        uninterrupted = CampaignRunner(
            spec, CorpusStore(str(tmp_path / "u")), register_attacks=False, telemetry=False
        ).run()
        with open(CampaignJournal.corpus_path(str(tmp_path / "u")), "rb") as handle:
            records = [JournalRecord.from_line(line.decode()) for line in handle]
        cut = next(
            i + 1 for i, r in enumerate(records)
            if r.type == "generation_checkpoint" and r.data["generation"] == 1
        )
        kept = records[:cut]
        elsewhere = {
            d for r in kept if r.type != "generation_checkpoint" for d in named_digests(r.type, r.data)
        }
        lost = set(named_digests(kept[-1].type, kept[-1].data)) - elsewhere
        assert lost
        corpus_dir = tmp_path / "killed"
        corpus_dir.mkdir()
        with open(CampaignJournal.corpus_path(str(corpus_dir)), "w", encoding="utf-8") as handle:
            for r in kept:
                table = {d: t for d, t in r.traces.items() if d not in lost}
                handle.write(make_record(r.seq, r.type, r.data, table).to_line())
        messages = []
        resumed = CampaignRunner.resume(
            str(corpus_dir), progress=messages.append, telemetry=False
        ).run()
        assert (
            f"[{spec.expand()[0].scenario_id}] journaled checkpoint names a trace the journal "
            "does not hold; restarting the scenario from its seeds"
        ) in messages
        assert [o.best_fingerprint for o in resumed.outcomes] == [
            o.best_fingerprint for o in uninterrupted.outcomes
        ]


def test_merge_keeps_the_union_of_the_tables_of_twins_at_one_seq():
    a, b = _trace(0.1), _trace(0.2)
    data, table, _ = deflate("generation_checkpoint", _checkpoint(0, a, b), ())
    da, db = trace_digest(a), trace_digest(b)
    left = make_record(4, "generation_checkpoint", data, {da: table[da]})
    right = make_record(4, "generation_checkpoint", data, {db: table[db]})
    assert left.dedup_key() == right.dedup_key()
    merged = merge_records([[left], [right]])
    assert merged == merge_records([[right], [left]])
    assert [r.traces for r in merged] == [table]
    # A lower seq wins with its own table, as content dedup always did.
    earlier = make_record(3, "generation_checkpoint", data, table)
    assert merge_records([[left], [earlier]]) == [earlier]
