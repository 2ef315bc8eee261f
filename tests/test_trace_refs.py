"""A trace is journaled once: records name traces by content digest.

``legacy_compacted_journal.jsonl`` is a schema-2 journal of a two-scenario
campaign (``reno`` and ``cubic`` traffic, population 4, 3 generations of
0.12 s, seed 7, ``seed_limit`` 2, no builtins), written while the journaled
spec still carried ``lease_ttl``:

1. the records up to the first scenario's generation-1 checkpoint, compacted
   into one ``compaction_snapshot``;
2. the resumed run, cut after its generation-2 checkpoint, which names a
   trace only the snapshot carries.

It pins the fold (a checkpoint resolves its references against an earlier
record's table) and the resume (the uninterrupted run's digest and corpus).
``trace_ref_journal.jsonl`` is a worker fleet's journal of the same shape,
which every reader refuses.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil

import pytest
from journal_bytes import dangling_refs

from repro.campaign import CampaignRunner, CampaignSpec, CorpusStore
from repro.cli import campaign_main
from repro.journal.codec import deflate, inflate, named_digests, trace_digest
from repro.journal.events import JournalCorruption, JournalRecord, canonical_json, make_record
from repro.journal.log import CampaignJournal, merge_records, read_journal_view
from repro.journal.view import FleetJournalError
from repro.obs.metrics import get_registry
from repro.serve.query import DashboardQuery
from repro.traces.trace import LinkTrace, TrafficTrace

FIXTURE = os.path.join(os.path.dirname(__file__), "legacy_compacted_journal.jsonl")
FLEET_FIXTURE = os.path.join(os.path.dirname(__file__), "trace_ref_journal.jsonl")
FIRST = "reno/traffic/throughput/base"
#: What the uninterrupted run of the fixture's spec gives, and its resume.
FIXTURE_RESUMED = {
    "digest": "6f385a343b7ee8b81d4df1eea9f3000d",
    "fingerprints": [
        "124e69654d6211dda1d7359233fe4d50", "3c5da7cec6088d6cecd57d36bc47f4ec",
        "7fd821beb44dfba2465adea171438b00", "966ffbdbee5faae417e1f89bc62ad735",
        "decc0e3f90cd845e57cc3ab84b1b683c",
    ],
}


def _fixture_copy(tmp_path, fixture: str = FIXTURE) -> str:
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    shutil.copy(fixture, CampaignJournal.corpus_path(str(corpus_dir)))
    return str(corpus_dir)


def _resume(corpus_dir: str) -> dict:
    result = CampaignRunner.resume(corpus_dir, telemetry=False).run()
    assert dangling_refs(CampaignJournal(CampaignJournal.corpus_path(corpus_dir)).records()) == []
    return {
        "digest": result.deterministic_digest(),
        "fingerprints": sorted(CorpusStore(corpus_dir).fingerprints()),
    }


class TestFixture:
    def test_its_checkpoint_names_a_trace_only_the_snapshot_carries(self):
        records = CampaignJournal(FIXTURE).records()
        assert [r.type for r in records] == [
            "compaction_snapshot", "campaign_resume", "scenario_lease", "behavior_delta",
            "generation_checkpoint",
        ]
        assert {r.schema for r in records} == {2}
        assert dangling_refs(records) == []
        snapshot, checkpoint = records[0], records[-1]
        # The snapshot is self-contained; the checkpoint carries the traces
        # it brings and names one more that only the snapshot holds.
        assert set(named_digests(snapshot.type, snapshot.data)) == set(snapshot.traces)
        named = set(named_digests(checkpoint.type, checkpoint.data))
        earlier = named - set(checkpoint.traces)
        assert earlier and earlier <= set(snapshot.traces)

        view = read_journal_view(FIXTURE)
        assert (view.compacted_records, view.record_count) == (6, 5)
        assert view.campaign["spec"]["lease_ttl"] == 30.0     # the older spec's key
        folded = view.checkpoints[FIRST]
        assert folded["generation"] == 2
        individuals = [i for island in folded["fuzzer"]["islands"] for i in island]
        assert [trace_digest(i["trace"]) for i in individuals] == named_digests(
            checkpoint.type, checkpoint.data
        )
        assert [h["generation"] for h in folded["fuzzer"]["history"]] == [0, 1, 2]

    def test_it_resumes_to_the_uninterrupted_run(self, tmp_path):
        assert _resume(_fixture_copy(tmp_path)) == FIXTURE_RESUMED

    def test_it_compacts_to_one_self_contained_record_that_resumes_alike(self, tmp_path):
        corpus_dir = _fixture_copy(tmp_path)
        journal = CampaignJournal(CampaignJournal.corpus_path(corpus_dir))
        before = journal.replay()
        assert journal.compact()["records_after"] == 1
        (snapshot,) = journal.records()
        assert set(named_digests(snapshot.type, snapshot.data)) == set(snapshot.traces)
        assert journal.replay().pending_checkpoints() == before.pending_checkpoints()
        journal.close()
        assert _resume(corpus_dir) == FIXTURE_RESUMED


#: One of each record a worker fleet wrote that the fold refuses.
FLEET_RECORDS = [
    make_record(1, "scenario_lease", {"scenario_id": "s", "lease_epoch": 1}),
    make_record(1, "generation_checkpoint", {"scenario_id": "s", "generation": 0,
                                             "lease_epoch": 2}),
    JournalRecord(1, "lease_renew", {"scenario_id": "s"}),
    JournalRecord(1, "lease_release", {"scenario_id": "s"}),
    JournalRecord(1, "scenario_seeds", {"campaign": "c", "seeds": {}}),
    make_record(1, "compaction_snapshot", {"view": {"scenario_seeds": {"seeds": {}}}}),
    make_record(1, "compaction_snapshot", {"view": {"leases": {
        "s": {"scenario_id": "s", "lease_epoch": 1}}}}),
]
FLEET_RECORD_IDS = ["lease", "epoch-stamped", "renew", "release", "seeds", "snapshot-seeds",
                    "snapshot-lease"]


class TestFleetJournals:
    """A journal an earlier version's worker fleet wrote is refused, by one
    named error, wherever it is read; the journal is left as it was."""

    def test_the_fold_refuses_it(self):
        assert any("lease_epoch" in r.data for r in CampaignJournal(FLEET_FIXTURE).records())
        with pytest.raises(FleetJournalError, match="written by a worker fleet"):
            read_journal_view(FLEET_FIXTURE)

    @pytest.mark.parametrize("record", FLEET_RECORDS, ids=FLEET_RECORD_IDS)
    def test_each_fleet_record_is_refused(self, record, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(
            make_record(0, "campaign_start", {"campaign": "c"}).to_line() + record.to_line()
        )
        with pytest.raises(FleetJournalError):
            read_journal_view(str(path))

    @pytest.mark.parametrize("argv", [
        ["status", "{dir}"],
        ["report", "--corpus", "{dir}"],
        ["replay", "--corpus", "{dir}", "--cca", "reno"],
        ["run", "--corpus", "{dir}", "--resume"],
    ], ids=["status", "report", "replay", "resume"])
    def test_every_reader_exits_2_naming_it(self, argv, tmp_path, capsys):
        corpus_dir = _fixture_copy(tmp_path, FLEET_FIXTURE)
        journal = CampaignJournal.corpus_path(corpus_dir)
        with open(journal, "rb") as handle:
            before = handle.read()
        with pytest.raises(SystemExit) as excinfo:
            campaign_main([arg.format(dir=corpus_dir) for arg in argv])
        assert excinfo.value.code == 2
        assert "error: journal record 8 (compaction_snapshot) was written by a worker fleet" in (
            capsys.readouterr().err
        )
        with open(journal, "rb") as handle:
            assert handle.read() == before

    @pytest.mark.parametrize("record", FLEET_RECORDS, ids=FLEET_RECORD_IDS)
    def test_a_resume_refuses_each_fleet_record_and_writes_nothing(self, record, tmp_path, capsys):
        # The serial fixture resumes; one fleet record after its tail is
        # enough for ``run --resume`` to refuse it before it writes a file.
        corpus_dir = _fixture_copy(tmp_path)
        journal = CampaignJournal.corpus_path(corpus_dir)
        seq = CampaignJournal(journal).records()[-1].seq + 1
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write(JournalRecord(seq, record.type, record.data).to_line())
        with open(journal, "rb") as handle:
            before = handle.read()
        with pytest.raises(SystemExit) as excinfo:
            campaign_main(["run", "--corpus", corpus_dir, "--resume"])
        assert excinfo.value.code == 2
        assert f"error: journal record {seq} ({record.type}) was written by a worker fleet" in (
            capsys.readouterr().err
        )
        with open(journal, "rb") as handle:
            assert handle.read() == before
        assert os.listdir(corpus_dir) == [os.path.basename(journal)]

    def test_compaction_refuses_it_and_leaves_it_as_it_was(self, tmp_path):
        corpus_dir = _fixture_copy(tmp_path, FLEET_FIXTURE)
        journal = CampaignJournal.corpus_path(corpus_dir)
        with open(journal, "rb") as handle:
            before = handle.read()
        with CampaignJournal(journal) as log, pytest.raises(FleetJournalError):
            log.compact()
        with open(journal, "rb") as handle:
            assert handle.read() == before


#: Every serial journal an earlier version wrote; each journaled spec
#: carries the retired ``lease_ttl``.
LEGACY_FIXTURES = [
    "legacy_compacted_journal.jsonl", "legacy_full_dump_journal.jsonl",
    "legacy_list_timestamps_journal.jsonl", "legacy_thread_mode_journal.jsonl",
]


@pytest.mark.parametrize("name", LEGACY_FIXTURES)
def test_a_journaled_spec_reads_without_its_retired_key(name):
    journaled = read_journal_view(os.path.join(os.path.dirname(__file__), name)).campaign["spec"]
    assert journaled["lease_ttl"] == 30.0
    with pytest.raises(ValueError, match="unknown campaign spec keys: lease_ttl"):
        CampaignSpec.from_dict(journaled)
    spec = CampaignSpec.from_journal(journaled)
    assert spec.to_dict() == {k: v for k, v in journaled.items() if k != "lease_ttl"}


#: sha256 (16 hex digits) of each schema-1 fixture's whole folded view as
#: sorted-key JSON, as the code before trace references folded it.  Derived
#: again from that code when the fleet's view fields went (``scenario_seeds``,
#: ``fenced_records``, and the per-scope ``caches`` that became
#: ``cache_state``): every field that is left folds as it did.
LEGACY_FOLDS = {
    "legacy_full_dump_journal.jsonl": "eeeaa77cb8dc2530",
    "legacy_list_timestamps_journal.jsonl": "bbf09267d25a6dae",
    "legacy_thread_mode_journal.jsonl": "da801962d541be29",
}


@pytest.mark.parametrize("name", sorted(LEGACY_FOLDS))
def test_a_schema_1_journal_folds_as_before_and_compacts_to_references(name, tmp_path):
    path = os.path.join(os.path.dirname(__file__), name)
    view = read_journal_view(path)
    fields = dataclasses.asdict(view)
    # The view folded the map eagerly then; ``behavior_state()`` is that fold.
    fields["behavior_cells"], fields["archive_counters"] = view.behavior_state()
    folded = json.dumps(fields, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(folded).hexdigest()[:16] == LEGACY_FOLDS[name]
    copy = str(tmp_path / "journal.jsonl")
    shutil.copy(path, copy)
    with CampaignJournal(copy, fsync=False) as journal:
        journal.compact()
        (snapshot,) = journal.records()
        compacted = journal.replay()
    assert snapshot.schema == 2 and set(named_digests(snapshot.type, snapshot.data)) == set(snapshot.traces)
    assert compacted.pending_checkpoints() == view.pending_checkpoints()
    for field in ("behavior_deltas", "inserts_by_scenario", "completed", "cache_state"):
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
        assert view.behavior_state()[0]["c0"]["trace"] is None
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
