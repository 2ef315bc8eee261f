"""Unit tests for the campaign journal: records, log, torn tails, merge, view."""

from __future__ import annotations

import copy
import dataclasses
import json
import os

import pytest

from repro.journal import (
    EVENT_TYPES,
    JOURNAL_SCHEMA,
    CampaignJournal,
    JournalCorruption,
    JournalError,
    JournalRecord,
    canonical_json,
    merge_journals,
    merge_records,
    replay_records,
)
from repro.journal.events import make_record
from repro.obs.metrics import get_registry


def journal_at(tmp_path, name="journal.jsonl") -> CampaignJournal:
    return CampaignJournal(str(tmp_path / name))


class TestRecords:
    def test_line_roundtrip(self):
        record = make_record(3, "scenario_lease", {"scenario_id": "a", "seed": 7})
        clone = JournalRecord.from_line(record.to_line())
        assert clone == record
        assert clone.schema == JOURNAL_SCHEMA

    def test_checksum_rejects_tampering(self):
        line = make_record(1, "scenario_lease", {"scenario_id": "a"}).to_line()
        tampered = line.replace('"a"', '"b"')
        with pytest.raises(JournalCorruption):
            JournalRecord.from_line(tampered)

    @pytest.mark.parametrize(
        "canonical, respelled",
        [("1e+16", "1E+16"), ("\\u00e9", "\\u00E9"), ('"seq":1', '"seq": 1')],
    )
    def test_respelling_a_value_is_tampering_too(self, canonical, respelled):
        # Same parsed value, same checksum over parsed values — different bytes.
        line = make_record(1, "scenario_lease", {"scenario_id": "é", "x": 1e16}).to_line()
        assert canonical in line
        with pytest.raises(JournalCorruption):
            JournalRecord.from_line(line.replace(canonical, respelled))

    def test_unknown_event_type_rejected_at_append(self):
        with pytest.raises(JournalError):
            make_record(1, "party_time", {})

    def test_non_json_data_rejected_at_append(self):
        with pytest.raises(JournalError):
            make_record(1, "scenario_lease", {"bad": object()})

    def test_dedup_key_ignores_seq(self):
        a = make_record(1, "scenario_lease", {"scenario_id": "a"})
        b = make_record(9, "scenario_lease", {"scenario_id": "a"})
        assert a.dedup_key() == b.dedup_key()
        assert a.checksum() != b.checksum()

    def test_canonical_json_is_key_order_insensitive(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})


class TestAppendAndReplay:
    def test_append_assigns_monotonic_seq_and_survives_reopen(self, tmp_path):
        journal = journal_at(tmp_path)
        journal.append("campaign_start", {"campaign": "c"})
        journal.append("scenario_lease", {"scenario_id": "s1"})
        journal.close()
        reopened = journal_at(tmp_path)
        reopened.append("scenario_complete", {"scenario_id": "s1", "outcome": {}})
        records = reopened.records()
        assert [record.seq for record in records] == [1, 2, 3]
        view = reopened.replay()
        assert view.campaign == {"campaign": "c"}
        assert "s1" in view.completed

    def test_every_event_type_roundtrips(self, tmp_path):
        journal = journal_at(tmp_path)
        for event_type in EVENT_TYPES:
            journal.append(event_type, {"scenario_id": "s", "generation": 0})
        assert [r.type for r in journal.records()] == list(EVENT_TYPES)

    def test_append_counts_bytes_by_record_type(self, tmp_path):
        registry = get_registry()
        names = ["journal.bytes", "journal.bytes.scenario_lease", "journal.bytes.corpus_insert"]
        before = [registry.counter(name) for name in names]
        journal = journal_at(tmp_path)
        journal.append("scenario_lease", {"scenario_id": "s1"})
        journal.append("corpus_insert", {"scenario_id": "s1", "fingerprint": "f" * 40})
        journal.append("scenario_lease", {"scenario_id": "s2"})
        total, leases, inserts = (
            registry.counter(name) - start for name, start in zip(names, before)
        )
        sizes = [len(record.to_line()) for record in journal.records()]
        assert total == os.path.getsize(journal.path) == sum(sizes)
        assert (leases, inserts) == (sizes[0] + sizes[2], sizes[1])

    def test_duplicate_events_collapse_on_replay(self, tmp_path):
        journal = journal_at(tmp_path)
        journal.append("scenario_lease", {"scenario_id": "s1"})
        journal.append("scenario_lease", {"scenario_id": "s1"})
        view = journal.replay()
        assert view.record_count == 1
        assert view.duplicates == 1

    def test_checkpoint_keeps_max_generation(self, tmp_path):
        journal = journal_at(tmp_path)
        for generation in (0, 2, 1):
            journal.append(
                "generation_checkpoint",
                {"scenario_id": "s", "generation": generation, "fuzzer": {}},
            )
        view = journal.replay()
        assert view.checkpoints["s"]["generation"] == 2
        assert view.pending_checkpoints() == {"s": view.checkpoints["s"]}

    def test_missing_file_replays_empty(self, tmp_path):
        view = journal_at(tmp_path).replay()
        assert view.campaign is None
        assert view.record_count == 0


class TestTornTails:
    def _write(self, path, payload: bytes) -> None:
        with open(path, "wb") as handle:
            handle.write(payload)

    def test_torn_final_line_is_skipped_and_counted(self, tmp_path):
        journal = journal_at(tmp_path)
        journal.append("campaign_start", {"campaign": "c"})
        line = make_record(2, "scenario_lease", {"scenario_id": "s"}).to_line()
        journal.close()
        with open(journal.path, "ab") as handle:
            handle.write(line.encode("utf-8")[: len(line) // 2])
        view = journal.replay()
        assert view.torn_records == 1
        assert view.record_count == 1

    def test_writer_repairs_torn_tail_and_continues_seq(self, tmp_path):
        journal = journal_at(tmp_path)
        journal.append("campaign_start", {"campaign": "c"})
        journal.close()
        with open(journal.path, "ab") as handle:
            handle.write(b'{"half a record')
        reopened = journal_at(tmp_path)
        reopened.append("scenario_lease", {"scenario_id": "s"})
        records = reopened.records()
        assert [record.seq for record in records] == [1, 2]
        assert reopened.replay().torn_records == 0  # tail was repaired away

    def test_unterminated_but_valid_final_record_is_kept(self, tmp_path):
        journal = journal_at(tmp_path)
        record = journal.append("campaign_start", {"campaign": "c"})
        journal.close()
        raw = open(journal.path, "rb").read()
        self._write(journal.path, raw.rstrip(b"\n"))
        reopened = journal_at(tmp_path)
        assert reopened.records() == [record]
        reopened.append("scenario_lease", {"scenario_id": "s"})
        assert [r.seq for r in reopened.records()] == [1, 2]

    def test_mid_file_corruption_raises(self, tmp_path):
        journal = journal_at(tmp_path)
        journal.append("campaign_start", {"campaign": "c"})
        journal.append("scenario_lease", {"scenario_id": "s"})
        journal.close()
        lines = open(journal.path, "rb").read().splitlines(keepends=True)
        lines[0] = b'{"corrupt": true}\n'
        self._write(journal.path, b"".join(lines))
        with pytest.raises(JournalCorruption):
            journal_at(tmp_path).replay()

    def test_schema_from_the_future_rejected(self, tmp_path):
        journal = journal_at(tmp_path)
        journal.append("campaign_start", {"campaign": "c"})
        journal.append("scenario_lease", {"scenario_id": "s"})
        journal.close()
        lines = open(journal.path, "rb").read().splitlines(keepends=True)
        payload = json.loads(lines[0])
        payload["schema"] = JOURNAL_SCHEMA + 1
        lines[0] = (json.dumps(payload) + "\n").encode("utf-8")
        self._write(journal.path, b"".join(lines))
        with pytest.raises(JournalCorruption):
            journal_at(tmp_path).replay()


class TestRotation:
    def test_rotate_archives_only_started_campaigns(self, tmp_path):
        journal = journal_at(tmp_path)
        assert journal.rotate() is None  # no file at all
        journal.append("scenario_lease", {"scenario_id": "s"})
        assert journal.rotate() is None  # no campaign_start yet
        journal.append("campaign_start", {"campaign": "c"})
        archived = journal.rotate()
        assert archived is not None and os.path.exists(archived)
        assert not os.path.exists(journal.path)
        journal.append("campaign_start", {"campaign": "c2"})
        second = journal.rotate()
        assert second != archived


class TestMerge:
    def _records(self, *payloads):
        return [
            make_record(index + 1, "corpus_insert", payload)
            for index, payload in enumerate(payloads)
        ]

    def test_merge_is_commutative_and_idempotent(self):
        a = self._records({"fingerprint": "x", "scenario_id": "s", "new": True, "entry": {}})
        b = self._records(
            {"fingerprint": "x", "scenario_id": "s", "new": True, "entry": {}},
            {"fingerprint": "y", "scenario_id": "s", "new": True, "entry": {}},
        )
        ab, ba = merge_records([a, b]), merge_records([b, a])
        assert ab == ba
        assert merge_records([ab]) == ab
        assert len(ab) == 2
        # Each survivor keeps the lowest seq any machine recorded for it.
        assert [record.seq for record in ab] == [1, 2]

    def test_merge_journal_files(self, tmp_path):
        one = journal_at(tmp_path, "one.jsonl")
        two = journal_at(tmp_path, "two.jsonl")
        one.append("campaign_start", {"campaign": "c"})
        one.append("scenario_complete", {"scenario_id": "s1", "outcome": {}})
        two.append("campaign_start", {"campaign": "c"})
        two.append("scenario_complete", {"scenario_id": "s2", "outcome": {}})
        one.close()
        two.close()
        out = str(tmp_path / "merged.jsonl")
        count = merge_journals([one.path, two.path], out)
        assert count == 3  # campaign_start deduplicated across machines
        view = CampaignJournal(out).replay()
        assert set(view.completed) == {"s1", "s2"}
        assert view.campaign == {"campaign": "c"}


class TestView:
    def test_behavior_state_respects_generation_limits(self):
        records = [
            make_record(1, "behavior_delta",
                        {"scenario_id": "s", "generation": 0,
                         "cells": {"c0": {"gen": 0}}, "counters": {"observations": 1}}),
            make_record(2, "behavior_delta",
                        {"scenario_id": "s", "generation": 1,
                         "cells": {"c0": {"gen": 1}, "c1": {"gen": 1}},
                         "counters": {"observations": 2}}),
        ]
        view = replay_records(records)
        cells, counters = view.behavior_state()
        assert cells == {"c0": {"gen": 1}, "c1": {"gen": 1}}
        assert counters == {"observations": 2}
        cells, counters = view.behavior_state(generation_limits={"s": 0})
        assert cells == {"c0": {"gen": 0}}
        assert counters == {"observations": 1}
        cells, counters = view.behavior_state(generation_limits={"s": -1})
        assert cells == {} and counters is None

    def test_unknown_event_types_are_ignored(self):
        # Simulate a newer writer: same schema, extra event type.
        record = make_record(1, "scenario_lease", {"scenario_id": "s"})
        future = JournalRecord(seq=2, type="hologram", data={"x": 1})
        view = replay_records([record, future])
        assert view.record_count == 2
        assert view.leases == {"s": {"scenario_id": "s"}}

    def test_a_copy_owns_every_container_and_keeps_every_counter(self):
        # A compaction snapshot and the records after it, folded with two
        # duplicates and a torn record: every counter the fold keeps is set.
        fixture = os.path.join(os.path.dirname(__file__), "legacy_compacted_journal.jsonl")
        records = list(CampaignJournal(fixture).records())
        view = replay_records(records + records[:2], torn_records=1)
        copied = view.copy()
        assert copied == view
        for f in dataclasses.fields(view):
            value = getattr(view, f.name)
            if isinstance(value, int):
                assert value > 0 and getattr(copied, f.name) == value, f.name
            elif isinstance(value, (list, dict)) and f.name != "campaign":
                assert getattr(copied, f.name) is not value, f.name


class TestCursor:
    """The journal's one incremental reader (the equivalence property over
    random histories lives in test_journal_properties.py)."""

    def test_a_handed_out_view_never_changes(self, tmp_path):
        """``resume`` keeps a view across later appends and replays of the
        same journal; the fold must not reach into it."""
        journal = journal_at(tmp_path)
        journal.append("campaign_start", {"campaign": "c", "archive_baseline": {}})
        journal.append("scenario_lease", {"scenario_id": "s", "seed": 1, "campaign": "c"})
        delta = {"schema": 1, "base": 0, "ops": [["k0"]], "counters": {"hits": 0}}
        journal.append("behavior_delta", {"scenario_id": "s", "generation": 0, "cells": {"c0": {}}, "counters": None})
        journal.append("generation_checkpoint", {"scenario_id": "s", "generation": 0, "fuzzer": {}, "cache": delta})
        journal.append("corpus_insert", {"scenario_id": "s", "fingerprint": "fp0"})
        view = journal.replay()
        frozen = copy.deepcopy(view)

        # Every fold that updates a container in place: the cache op log,
        # the leases, the per-scenario insert map, the lists.
        journal.append("scenario_lease", {"scenario_id": "t", "seed": 2, "campaign": "c"})
        journal.append("behavior_delta", {"scenario_id": "s", "generation": 1, "cells": {"c1": {}}, "counters": None})
        journal.append("generation_checkpoint", {"scenario_id": "s", "generation": 1, "fuzzer": {}, "cache": {**delta, "base": 1, "ops": [["k1"]]}})
        journal.append("corpus_insert", {"scenario_id": "s", "fingerprint": "fp1"})
        journal.append("job_quarantined", {"scenario_id": "s", "fingerprint": "fp1", "cca": "reno"})
        journal.append("scenario_complete", {"scenario_id": "s", "outcome": {}})
        journal.append("campaign_resume", {"campaign": "c"})
        later = journal.replay()

        assert view == frozen
        assert later.cache_state["ops"] == [["k0"], ["k1"]] and view.cache_state["ops"] == [["k0"]]
        assert set(later.leases) == {"s", "t"} and set(view.leases) == {"s"}
        assert later == CampaignJournal(journal.path).replay()

    def test_records_that_sort_before_folded_ones_force_a_reread(self, tmp_path):
        """The fold is in ``(seq, type, key)`` order, so a record arriving
        late with an early seq cannot be folded onto what is there."""
        journal = journal_at(tmp_path)
        journal.append("campaign_resume", {"campaign": "late"})              # seq 1
        journal.append("campaign_start", {"campaign": "second"})             # seq 2
        assert journal.replay().campaign == {"campaign": "second"}
        with open(journal.path, "ab") as handle:                              # a copy tool, not a writer
            handle.write(make_record(1, "campaign_start", {"campaign": "first"}).to_line().encode("utf-8"))
        scans = get_registry().counter("journal.scans")
        view = journal.replay()
        assert get_registry().counter("journal.scans") - scans == 2          # the suffix, then the whole file
        assert view.campaign == {"campaign": "first"}                         # first in fold order wins
        assert view == CampaignJournal(journal.path).replay()

    def test_compacting_an_up_to_date_journal_does_not_parse_it_again(self, tmp_path):
        """``compact()`` and ``rotate()`` close the append handle first;
        that must not throw away what the journal has verified."""
        journal = journal_at(tmp_path)
        for generation in range(5):
            journal.append("generation_checkpoint", {"scenario_id": "s", "generation": generation})
        before = journal.replay()                      # reads the five records back, once
        scanned = get_registry().counter("journal.bytes_scanned")
        stats = journal.compact()
        assert get_registry().counter("journal.bytes_scanned") == scanned
        assert stats["records_before"] == 5 and stats["bytes_before"] > stats["bytes_after"]
        after = journal.replay()
        assert after.checkpoints == before.checkpoints and after.compacted_records == 5
        assert journal.append("campaign_resume", {}).seq == before.last_seq + 1

    def test_a_fresh_campaign_rotates_a_compacted_predecessor(self, tmp_path):
        """A compacted journal has no ``campaign_start`` *record*, only the
        snapshot's copy of it; it is a finished campaign's log all the same."""
        journal = journal_at(tmp_path)
        journal.append("campaign_start", {"campaign": "old"})
        journal.compact()
        archived = journal.rotate()
        assert archived is not None and os.path.exists(archived)
        journal.append("campaign_start", {"campaign": "new"})
        assert journal.replay().campaign == {"campaign": "new"}


def test_compact_of_empty_journal_is_a_noop(tmp_path):
    journal = CampaignJournal(str(tmp_path / "journal.jsonl"), fsync=False)
    assert journal.compact() is None
    assert not os.path.exists(journal.path)


def test_append_detects_journal_replaced_under_open_handle(tmp_path):
    """Bugfix: append() kept writing to its original (now unlinked) inode
    after another process rotated/compacted/replaced the journal file; the
    fstat check now reopens the new file and continues its sequence."""
    path = str(tmp_path / "journal.jsonl")
    journal = CampaignJournal(path, fsync=False)
    journal.append("campaign_start", {"campaign": "old"})
    journal.append("campaign_resume", {"campaign": "old"})

    other = CampaignJournal(str(tmp_path / "other.jsonl"), fsync=False)
    other.append("campaign_start", {"campaign": "new"})
    other.close()
    os.replace(str(tmp_path / "other.jsonl"), path)

    record = journal.append("scenario_lease", {"scenario_id": "s", "campaign": "new"})
    assert record.seq == 2  # continues after the replacement file's records
    records = journal.records()
    assert [r.type for r in records] == ["campaign_start", "scenario_lease"]
    assert records[0].data["campaign"] == "new"
