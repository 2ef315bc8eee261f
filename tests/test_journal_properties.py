"""Property-based tests for the campaign journal.

The journal's correctness claims are algebraic — replay is insensitive to
record order after dedup, merge is commutative/associative/idempotent, a
torn tail of *any* length is detected and skipped, and every trace a record
names by digest was carried by a record before it — so Hypothesis searches
for the interleavings and cut points that violate them.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from journal_bytes import dangling_refs

from repro.campaign import CampaignRunner, CampaignSpec, CorpusStore
from repro.exec.cache import TraceCache, make_cache_key
from repro.journal.codec import TRACE_PATHS, deflate, inflate, named_digests, trace_digest
from repro.journal.events import (
    EVENT_TYPES,
    JOURNAL_SCHEMA,
    JournalCorruption,
    JournalRecord,
    make_record,
)
from repro.journal.log import (
    CampaignJournal,
    JournalCursor,
    _scan_bytes,
    merge_journals,
    merge_records,
)
from repro.journal.view import replay_records
from repro.scoring.base import Score
from repro.traces.trace import LinkTrace, LossTrace, TrafficTrace

#: JSON-native scalar payload values.
scalars_st = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.text(max_size=12),
)


scenario_ids_st = st.sampled_from(["reno/traffic/a", "cubic/link/b", "bbr/loss/c"])


@st.composite
def event_st(draw):
    """One well-formed event: the keys the writer guarantees, per type."""
    event_type = draw(st.sampled_from(EVENT_TYPES))
    data = {"note": draw(scalars_st)}
    if event_type not in ("campaign_start", "campaign_resume"):
        data["scenario_id"] = draw(scenario_ids_st)
    if event_type == "generation_checkpoint":
        data["generation"] = draw(st.integers(min_value=0, max_value=5))
    if event_type == "corpus_insert":
        data["fingerprint"] = draw(st.sampled_from(["fp0", "fp1", "fp2"]))
    return event_type, data


@st.composite
def records_st(draw, min_size=0, max_size=12):
    """A plausible journal: monotonically numbered records of mixed types."""
    events = draw(st.lists(event_st(), min_size=min_size, max_size=max_size))
    return [
        make_record(seq + 1, event_type, data)
        for seq, (event_type, data) in enumerate(events)
    ]


def view_fingerprint(view) -> tuple:
    """Everything a resume reads from a view, as a comparable value."""
    return (
        view.campaign,
        view.leases,
        view.checkpoints,
        view.inserts,
        view.completed,
        view.behavior_state(),
        view.behavior_deltas,
        view.record_count,
    )


@given(records=records_st(), shuffle_seed=st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_replay_is_order_insensitive_after_dedup(records, shuffle_seed):
    shuffled = list(records)
    shuffle_seed.shuffle(shuffled)
    assert view_fingerprint(replay_records(shuffled)) == view_fingerprint(
        replay_records(records)
    )


@given(records=records_st(min_size=1))
@settings(max_examples=60, deadline=None)
def test_replay_collapses_duplicated_records(records):
    assert view_fingerprint(replay_records(records + records)) == view_fingerprint(
        replay_records(records)
    )


@given(a=records_st(), b=records_st())
@settings(max_examples=60, deadline=None)
def test_merge_commutes(a, b):
    assert merge_records([a, b]) == merge_records([b, a])


@given(a=records_st(), b=records_st(), c=records_st())
@settings(max_examples=40, deadline=None)
def test_merge_associates(a, b, c):
    left = merge_records([merge_records([a, b]), c])
    right = merge_records([a, merge_records([b, c])])
    assert left == right


@given(records=records_st())
@settings(max_examples=60, deadline=None)
def test_merge_is_idempotent_and_ordered(records):
    merged = merge_records([records])
    assert merge_records([merged, merged]) == merged
    assert [record.seq for record in merged] == sorted(record.seq for record in merged)
    # Merged journals replay to the same view as the raw union.
    assert view_fingerprint(replay_records(merged)) == view_fingerprint(
        replay_records(records)
    )


def resume_fingerprint(view) -> tuple:
    """Everything a resume reads (compaction must preserve this)."""
    return (
        view.campaign,
        view.resumes,
        view.leases,
        view.pending_checkpoints(),
        view.completed,
        view.behavior_deltas,
        view.behavior_state(),
        view.cache_state,
        view.inserts_by_scenario,
    )


@given(records=records_st(min_size=1))
@settings(max_examples=40, deadline=None)
def test_compact_is_replay_equivalent(records):
    """compact() folds any journal into one snapshot whose replay preserves
    every resume-relevant field, and appends continue the sequence."""
    with tempfile.TemporaryDirectory() as tmp:
        journal = CampaignJournal(os.path.join(tmp, "journal.jsonl"), fsync=False)
        for record in records:
            journal.append(record.type, record.data)
        before = journal.replay()
        stats = journal.compact()
        assert stats is not None and stats["records_after"] == 1
        after = journal.replay()
        assert resume_fingerprint(after) == resume_fingerprint(before)
        assert journal.append("campaign_resume", {}).seq == before.last_seq + 1


@given(
    records=records_st(min_size=1),
    cut=st.integers(min_value=1, max_value=200),
)
@settings(max_examples=40, deadline=None)
def test_torn_tail_of_any_length_is_skipped(records, cut):
    """Cutting the final record anywhere loses exactly that record: earlier
    records replay intact, the tear is counted, and a reopened writer
    repairs the file and continues the sequence."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "journal.jsonl")
        journal = CampaignJournal(path, fsync=False)
        for record in records:
            journal.append(record.type, record.data)
        journal.close()
        raw = open(path, "rb").read()
        lines = raw.splitlines(keepends=True)
        final = lines[-1]
        kept = min(cut, len(final) - 1)  # always strip at least the newline
        with open(path, "wb") as handle:
            handle.write(b"".join(lines[:-1]) + final[:kept])
        reread = CampaignJournal(path, fsync=False)
        survivors = reread.records()
        view = reread.replay()
        intact = [
            (record.type, record.data) for record in records[: len(records) - 1]
        ]
        if len(survivors) == len(records):
            # The cut only removed the newline; the record itself survived.
            assert view.torn_records == 0
        else:
            assert [(r.type, r.data) for r in survivors] == intact
            assert view.torn_records == 1
        # The repairing writer truncates the tear and the log grows on.
        appended = reread.append("scenario_lease", {"scenario_id": "fresh"})
        assert appended.seq == len(reread.records())
        assert reread.replay().torn_records == 0


# ---------------------------------------------------------------------- #
# Cache op-deltas: cut anywhere, journal, fold, restore == the live cache
# ---------------------------------------------------------------------- #

CACHE_SID = "reno/traffic/a"
CACHE_KEYS = [make_cache_key(f"trace{i}", "reno:00", "sim", "score") for i in range(6)]

#: One cache touch: a lookup (put on a miss, like ``Evaluator`` does) or
#: an in-batch duplicate that only moves the hit counter.
touch_st = st.one_of(
    st.tuples(st.just("lookup"), st.integers(min_value=0, max_value=len(CACHE_KEYS) - 1)),
    st.just(("coalesced", 0)),
)
#: Touches per generation; every generation ends in a checkpoint.
generations_st = st.lists(st.lists(touch_st, max_size=8), min_size=1, max_size=6)
#: ``None`` never evicts or reorders; 2 and 3 do both over six keys.
max_entries_st = st.sampled_from([None, 2, 3])


def play(cache: TraceCache, touches) -> None:
    for kind, index in touches:
        if kind == "coalesced":
            cache.record_coalesced_hit()
        elif cache.get(CACHE_KEYS[index]) is None:
            cache.put(CACHE_KEYS[index], Score(index + 0.5, float(index)), {"events": index})


class CheckpointedCache:
    """The checkpoint call sites in miniature: one cache, one journal, one mark."""

    def __init__(self, tmp: str, max_entries) -> None:
        self.path = os.path.join(tmp, "journal.jsonl")
        self.journal = CampaignJournal(self.path, fsync=False)
        self.max_entries = max_entries
        self.cache = TraceCache(max_entries=max_entries)
        self.mark = 0

    def checkpoint(self, generation: int, event: str = "generation_checkpoint") -> None:
        delta, self.mark = self.cache.delta_since(self.mark)
        self.journal.append(
            event,
            {"scenario_id": CACHE_SID, "generation": generation, "cache": delta},
        )

    def journaled(self):
        """The folded payload a resume would restore."""
        return CampaignJournal(self.path, fsync=False).replay().cache_state

    def resume(self) -> None:
        """A new process: fresh cache, restored from the journal alone."""
        self.journal.close()
        self.journal = CampaignJournal(self.path, fsync=False)
        self.cache = TraceCache(max_entries=self.max_entries)
        state = self.journaled()
        self.mark = self.cache.restore(state) if state is not None else 0

    def assert_journal_equals_live(self) -> None:
        restored = TraceCache(max_entries=self.max_entries)
        mark = restored.restore(self.journaled())
        assert restored.dump() == self.cache.dump()  # entries, LRU order, counters
        assert restored.stats() == self.cache.stats()
        # ... and the restored cache checkpoints on from exactly there.
        assert mark == self.mark
        delta, _ = restored.delta_since(mark)
        assert (delta["base"], delta["ops"]) == (mark, [])


@given(
    max_entries=max_entries_st,
    generations=generations_st,
    incident=st.sampled_from(["none", "kill", "torn", "redo", "compact"]),
    at=st.integers(min_value=0, max_value=5),
    redone=st.lists(touch_st, max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_cache_deltas_fold_back_to_the_live_cache(
    max_entries, generations, incident, at, redone
):
    """Random put/hit/miss sequences on evicting and non-evicting caches, cut
    at every generation, journaled, folded and restored, equal the live cache
    — across a clean kill, a torn checkpoint, a re-done generation and a
    compaction at a random generation."""
    at = min(at, len(generations) - 1)
    with tempfile.TemporaryDirectory() as tmp:
        run = CheckpointedCache(tmp, max_entries)
        for generation, touches in enumerate(generations):
            play(run.cache, touches)
            run.checkpoint(generation)
            if generation != at:
                continue
            if incident == "kill":
                run.resume()
            elif incident == "compact":
                assert run.journal.compact()["records_after"] == 1
            elif incident == "torn":
                # The checkpoint's append was cut short: the resumed process
                # restores the previous checkpoint and evaluates it again.
                run.journal.close()
                raw = open(run.path, "rb").read()
                final = raw.splitlines(keepends=True)[-1]
                with open(run.path, "wb") as handle:
                    handle.write(raw[: len(raw) - len(final) // 2 - 1])
                run.resume()
                play(run.cache, touches)
                run.checkpoint(generation)
            elif incident == "redo":
                # The generation is evaluated again from the checkpoint
                # before it, differently, and journaled a second time: the
                # second delta must replace the first (truncate to ``base``),
                # not pile up behind it.
                records = CampaignJournal(run.path, fsync=False).records()
                before = replay_records(records[:-1]).cache_state
                run.cache = TraceCache(max_entries=max_entries)
                run.mark = run.cache.restore(before) if before is not None else 0
                play(run.cache, redone)
                run.checkpoint(generation)
        run.checkpoint(len(generations), event="scenario_complete")
        run.assert_journal_equals_live()


@given(max_entries=max_entries_st, generations=generations_st, peeks=st.lists(
    st.integers(min_value=0, max_value=len(CACHE_KEYS) - 1), max_size=12))
@settings(max_examples=80, deadline=None)
def test_peek_counts_nothing_moves_nothing_logs_nothing(max_entries, generations, peeks):
    """A checkpoint restore reads outcomes back with ``peek``: the hit and
    miss counters, the op log and the LRU order stay the uninterrupted run's."""
    plain, peeked = TraceCache(max_entries=max_entries), TraceCache(max_entries=max_entries)
    mark = 0
    for touches in generations:
        play(plain, touches)
        play(peeked, touches)
        for index in peeks:
            entry = peeked.peek(CACHE_KEYS[index])
            if CACHE_KEYS[index] in plain:
                assert entry == (Score(index + 0.5, float(index)), {"events": index})
            else:
                assert entry is None
        assert peeked.dump() == plain.dump()          # entries, LRU order, counters
        assert peeked.stats() == plain.stats()
        delta, _ = plain.delta_since(mark)
        assert peeked.delta_since(mark) == (delta, mark + len(delta["ops"]))
        mark += len(delta["ops"])


# ---------------------------------------------------------------------- #
# Line codec: serialise once == the legacy triple dump, byte for byte
# ---------------------------------------------------------------------- #


def _legacy_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def legacy_encode(seq: int, event_type: str, data, schema: int = 1):
    """The encoder this repository shipped before the serialise-once codec,
    kept verbatim as the reference (``schema`` aside): ``make_record`` dumped
    and re-parsed the data, ``checksum`` dumped it again and ``to_line`` a
    third time.  A schema-2 record without a trace table is framed the same."""
    normalised = json.loads(_legacy_dumps(data))
    crc = hashlib.blake2b(
        _legacy_dumps([schema, seq, event_type, normalised]).encode("utf-8"), digest_size=4
    ).hexdigest()
    dedup = hashlib.blake2b(
        _legacy_dumps([schema, event_type, normalised]).encode("utf-8"), digest_size=8
    ).hexdigest()
    line = _legacy_dumps(
        {"schema": schema, "seq": seq, "type": event_type, "data": normalised, "crc": crc}
    ) + "\n"
    return line, crc, dedup, normalised


json_values_st = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**80), max_value=2**80),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=12),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=12,
)
payloads_st = st.dictionaries(st.text(max_size=6), json_values_st, max_size=5)


@given(
    seq=st.integers(min_value=1, max_value=2**40),
    event_type=st.sampled_from(EVENT_TYPES),
    data=payloads_st,
)
@settings(max_examples=200, deadline=None)
def test_serialise_once_codec_matches_the_legacy_triple_dump(seq, event_type, data):
    line, crc, dedup, normalised = legacy_encode(seq, event_type, data, JOURNAL_SCHEMA)
    record = make_record(seq, event_type, data)
    assert record.to_line() == line
    assert record.checksum() == crc
    assert record.dedup_key() == dedup
    assert record.data == normalised  # tuples became lists, like a re-read
    reread = JournalRecord.from_line(line)
    assert reread == record
    assert (reread.to_line(), reread.checksum(), reread.dedup_key()) == (line, crc, dedup)
    # A schema-1 line (inline traces, no table) still reads, and re-encodes as itself.
    line, crc, dedup, _ = legacy_encode(seq, event_type, data, 1)
    legacy = JournalRecord.from_line(line)
    assert (legacy.schema, legacy.data, legacy.traces) == (1, normalised, {})
    assert (legacy.to_line(), legacy.checksum(), legacy.dedup_key()) == (line, crc, dedup)


@given(
    seq=st.integers(min_value=1, max_value=2**40),
    event_type=st.sampled_from(EVENT_TYPES),
    data=payloads_st,
    position=st.integers(min_value=0),
    mask=st.integers(min_value=1, max_value=255),
)
@settings(max_examples=300, deadline=None)
def test_flipping_any_byte_of_a_line_is_detected(seq, event_type, data, position, mask):
    raw = make_record(seq, event_type, data).to_line().encode("utf-8")
    position %= len(raw)
    damaged = raw[:position] + bytes([raw[position] ^ mask]) + raw[position + 1:]
    try:
        text = damaged.decode("utf-8")
    except UnicodeDecodeError:
        return  # the file scanner counts an undecodable line as corrupt too
    with pytest.raises(JournalCorruption):
        JournalRecord.from_line(text)


# ---------------------------------------------------------------------- #
# The cursor: whatever happens to the file, following it == re-reading it
# ---------------------------------------------------------------------- #

CURSOR_SIDS = ["s/a", "s/b"]
CURSOR_FPS = ["fp0", "fp1"]
small_int_st = st.integers(min_value=0, max_value=3)

cache_payload_st = st.one_of(
    st.none(),
    st.just({"entries": []}),                      # a pre-delta full dump
    st.builds(
        lambda base, ops, hits: {"schema": 1, "base": base, "ops": ops, "counters": {"hits": hits}},
        small_int_st,
        st.lists(st.lists(st.sampled_from(["k0", "k1", "k2"]), min_size=1, max_size=1), max_size=3),
        small_int_st,
    ),
)


@st.composite
def cursor_event_st(draw):
    """Events that exercise every fold: leases, cache op-deltas, behavior
    deltas, the insert and quarantine WALs, and traces (named by digest once
    a writer has carried them)."""
    kind = draw(st.sampled_from([t for t in EVENT_TYPES if t != "compaction_snapshot"]))
    sid = draw(st.sampled_from(CURSOR_SIDS))
    n = draw(small_int_st)
    data = {
        "campaign_start": lambda: {"campaign": f"c{n % 2}", "archive_baseline": {}},
        "campaign_resume": lambda: {"campaign": "c0", "n": n},
        "scenario_lease": lambda: {"scenario_id": sid, "seed": n, "campaign": "c0"},
        "generation_checkpoint": lambda: {
            "scenario_id": sid, "generation": n,
            "fuzzer": {"generation": n, "islands": [[{"trace": draw(trace_st)}]]},
            "cache": draw(cache_payload_st),
        },
        "behavior_delta": lambda: {
            "scenario_id": sid, "generation": n,
            "cells": {f"cell{n % 2}": {"hits": n, "trace": draw(trace_st)}},
            "counters": draw(st.sampled_from([None, {"observed": n}])),
        },
        "corpus_insert": lambda: {
            "scenario_id": sid, "fingerprint": draw(st.sampled_from(CURSOR_FPS)), "new": bool(n % 2),
            "entry": {"trace": draw(trace_st)},
        },
        "scenario_complete": lambda: {
            "scenario_id": sid, "outcome": {"best_fitness": n}, "cache": draw(cache_payload_st),
        },
        "job_quarantined": lambda: {
            "scenario_id": sid, "fingerprint": draw(st.sampled_from(CURSOR_FPS)), "cca": "reno",
        },
    }[kind]()
    return kind, data


writer_st = st.integers(min_value=0, max_value=1)
#: Which of the lagging readers look at the file after this step (bitmask).
lookers_st = st.integers(min_value=0, max_value=15)

cursor_op_st = st.one_of(
    st.tuples(st.just("append"), writer_st, cursor_event_st()),
    st.tuples(st.just("fresh_append"), cursor_event_st()),          # a new writer: repairs first
    st.tuples(st.just("torn"), cursor_event_st(), st.integers(min_value=1, max_value=400)),
    st.tuples(st.just("garbage")),
    # Raw bytes of a valid record, as a copy tool or a writer without the
    # repair step would leave them: seq continues, collides, or runs backwards.
    st.tuples(st.just("raw"), cursor_event_st(), st.one_of(st.none(), st.integers(min_value=1, max_value=6))),
    st.tuples(st.just("rotate"), writer_st),
    st.tuples(st.just("compact"), writer_st),
    st.tuples(st.just("merge"), st.lists(cursor_event_st(), max_size=4)),
    st.tuples(st.just("truncate"), st.floats(min_value=0.0, max_value=1.0)),
    st.tuples(st.just("close"), writer_st),
)


def _from_scratch(path: str, observing: bool):
    """The oracle: parse and fold the file's current bytes, nothing kept."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except FileNotFoundError:
        raw = b""
    records, _, skipped, torn_tail = _scan_bytes(raw, observing=observing)
    return replay_records(records, torn_records=skipped + torn_tail)


def _assert_follows(read, path: str, observing: bool) -> None:
    try:
        expected = _from_scratch(path, observing)
    except JournalCorruption:
        with pytest.raises(JournalCorruption):
            read()
        return
    assert read() == expected          # dataclass equality: every JournalView field


@given(ops=st.lists(st.tuples(cursor_op_st, lookers_st), max_size=14))
@settings(max_examples=150, deadline=None)
def test_following_the_file_equals_rereading_it(ops):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "journal.jsonl")
        writers = [CampaignJournal(path, fsync=False) for _ in range(2)]
        eager = [JournalCursor(path), JournalCursor(path, observing=True)]
        lagging = [
            (JournalCursor(path).advance, False),
            (JournalCursor(path, observing=True).advance, True),
            (writers[0].replay, False),       # folds its own appends once asked
            (writers[1].replay, False),
        ]

        def raw_append(payload: bytes) -> None:
            with open(path, "ab") as handle:
                handle.write(payload)

        def next_seq() -> int:
            return _from_scratch(path, True).last_seq + 1

        for step, (op, lookers) in enumerate(ops):
            kind = op[0]
            try:
                if kind == "append":
                    writers[op[1]].append(*op[2])
                elif kind == "fresh_append":
                    with CampaignJournal(path, fsync=False) as fresh:
                        fresh.append(*op[1])
                elif kind == "torn":
                    line = make_record(next_seq(), *op[1]).to_line().encode("utf-8")
                    raw_append(line[: min(op[2], len(line) - 1)])   # at most: all but the newline
                elif kind == "garbage":
                    raw_append(b'{"crc":"00000000","data":{},"schema":1,"seq":1,"type":"x"}\n')
                elif kind == "raw":
                    seq = next_seq() if op[2] is None else op[2]
                    raw_append(make_record(seq, *op[1]).to_line().encode("utf-8"))
                elif kind == "rotate":
                    writers[op[1]].rotate()
                elif kind == "compact":
                    writers[op[1]].compact()
                elif kind == "merge":
                    other = os.path.join(tmp, f"other-{step}.jsonl")
                    with CampaignJournal(other, fsync=False) as foreign:
                        for event in op[1]:
                            foreign.append(*event)      # seqs from 1: they collide with ours
                    merge_journals([other, path], path)
                elif kind == "truncate":
                    if os.path.exists(path):
                        os.truncate(path, int(op[1] * os.path.getsize(path)))
                    # A shrink shows only while the file is shorter than what
                    # a reader consumed (the rule ``metrics.jsonl`` tailing
                    # has too), so everyone looks before it can regrow.
                    lookers = 15
                elif kind == "close":
                    writers[op[1]].close()
            except JournalCorruption:
                pass        # a writer refusing a file with a bad interior line

            for cursor in eager:
                _assert_follows(cursor.advance, path, cursor.observing)
            for bit, (read, observing) in enumerate(lagging):
                if lookers >> bit & 1:
                    _assert_follows(read, path, observing)
        for cursor in eager:
            cursor.close()
        for writer in writers:
            writer.close()


def test_a_followed_inode_cannot_come_back_as_another_file(tmp_path):
    """Two compactions in a row free the first file's inode number for the
    third file to take — unless somebody still holds the first file open,
    which is why the cursor does.  Without the pin, a reader that compared
    inode numbers alone could take the new file for the one it had read."""
    path = str(tmp_path / "journal.jsonl")
    writer = CampaignJournal(path, fsync=False)
    for generation in range(4):
        writer.append("generation_checkpoint", {"scenario_id": "s", "generation": generation})
    cursor = JournalCursor(path, observing=True)
    assert cursor.advance().record_count == 4
    followed = cursor.identity
    for round_ in range(2):
        other = CampaignJournal(path, fsync=False)
        other.append("campaign_resume", {"campaign": "c", "round": round_})
        assert other.compact() is not None
        other.close()
        status = os.stat(path)
        assert (status.st_ino, status.st_dev) != followed
    assert cursor.advance() == _from_scratch(path, True)
    assert cursor.identity != followed
    cursor.close()


def test_a_folded_line_rewritten_in_place_forces_a_reread(tmp_path):
    """A record missing only its newline is intact, so a follower folds it.
    If that line then grows into garbage, a repairing writer truncates it
    away and may put a different record of the same length where it was:
    same inode, no shorter, and the first new byte where a newline would be.
    Only the bytes of the line the follower last read tell the two apart
    (found by the property above, at a few thousand examples)."""
    path = str(tmp_path / "journal.jsonl")
    first = make_record(1, "campaign_start", {"campaign": "c0"}).to_line().encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(first[:-1])
    followers = [JournalCursor(path), JournalCursor(path, observing=True)]
    for cursor in followers:
        assert cursor.advance().campaign == {"campaign": "c0"}
    with open(path, "ab") as handle:
        handle.write(b"{")                      # a copy tool: no repair first
    with CampaignJournal(path, fsync=False) as writer:
        writer.append("campaign_start", {"campaign": "c1"})
    assert os.path.getsize(path) == len(first)
    for cursor in followers:
        assert cursor.advance() == _from_scratch(path, cursor.observing)
        assert cursor.advance().campaign == {"campaign": "c1"}
        cursor.close()


# ---------------------------------------------------------------------- #
# Trace references: every name resolves, whatever is done to the file
# ---------------------------------------------------------------------- #

TRACE_POOL = [
    TrafficTrace([0.1, 0.2], duration=1.0, metadata={"origin": "seed"}, max_packets=4).to_dict(),
    TrafficTrace([0.1, 0.2], duration=1.0, metadata={"origin": "mutation"}, max_packets=4).to_dict(),
    LinkTrace([0.25, 0.5, 0.75], duration=1.0).to_dict(),
    LossTrace([0.3], duration=1.0).to_dict(),
]
trace_st = st.one_of(st.none(), st.sampled_from(TRACE_POOL))


@st.composite
def trace_payload_st(draw, kinds=tuple(sorted(TRACE_PATHS))):
    """A payload of a trace-bearing record type, traces drawn from a small
    pool so that repeats (within a record and across records) are common."""
    kind = draw(st.sampled_from(kinds))
    sid = draw(scenario_ids_st)

    def checkpoint():
        individual = st.builds(lambda trace: {"trace": trace, "origin": "seed"}, trace_st)
        islands = draw(st.lists(st.lists(individual, max_size=3), max_size=2))
        return {"scenario_id": sid, "generation": draw(small_int_st), "fuzzer": {"islands": islands}}

    def delta():
        elite = st.builds(lambda trace: {"trace": trace, "score": 1.0}, trace_st)
        cells = draw(st.dictionaries(st.sampled_from(["c0", "c1", "c2"]), elite, max_size=3))
        return {"scenario_id": sid, "generation": draw(small_int_st), "cells": cells}

    def insert():
        entry = {"trace": draw(trace_st), "origin": "fuzz"}
        return {"scenario_id": sid, "fingerprint": draw(st.sampled_from(CURSOR_FPS)), "entry": entry}

    return kind, {
        "generation_checkpoint": checkpoint,
        "behavior_delta": delta,
        "corpus_insert": insert,
        "compaction_snapshot": lambda: {"snapshot_schema": 2, "view": {
            "checkpoints": {sid: checkpoint()}, "behavior_deltas": [delta()], "inserts": [insert()],
        }},
    }[kind]()


@given(payload=trace_payload_st(), known=st.sets(st.sampled_from(range(len(TRACE_POOL)))))
@settings(max_examples=150, deadline=None)
def test_inflating_a_deflated_payload_gives_it_back(payload, known):
    kind, data = payload
    pool = {trace_digest(trace): trace for trace in TRACE_POOL}
    held = {trace_digest(TRACE_POOL[i]) for i in known}
    deflated, table, named = deflate(kind, data, held)
    names = named_digests(kind, deflated)
    assert named == len(names) and set(table) == set(names) - held
    assert all(pool[digest] is trace for digest, trace in table.items())
    assert inflate(kind, deflated, {**{d: pool[d] for d in held}, **table}) == data


def _journaled(events, path: str):
    """``events`` appended by one writer; its records as a reader sees them."""
    with CampaignJournal(path, fsync=False) as journal:
        for kind, data in events:
            journal.append(kind, data)
    return CampaignJournal(path).records()


machine_st = st.lists(trace_payload_st(kinds=tuple(sorted(set(TRACE_PATHS) - {"compaction_snapshot"}))), max_size=6)


@given(a=machine_st, b=machine_st, c=machine_st)
@settings(max_examples=40, deadline=None)
def test_merged_journals_resolve_every_trace_they_name(a, b, c):
    """Three writers' journals, each naming the traces it carried first:
    merge stays commutative, associative and idempotent, every name in a
    merge has its table earlier in fold order, and the merge replays to the
    view of the raw union."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"{name}.jsonl") for name in "abc"]
        ra, rb, rc = (_journaled(events, path) for events, path in zip((a, b, c), paths))
        ab = merge_records([ra, rb])
        assert ab == merge_records([rb, ra])
        assert merge_records([ab, rc]) == merge_records([ra, merge_records([rb, rc])])
        assert merge_records([ab, ab]) == ab
        merged = os.path.join(tmp, "merged.jsonl")
        merge_journals(paths, merged)
        records = CampaignJournal(merged).records()
        assert records == merge_records([ab, rc])
        assert dangling_refs(records) == []
        assert view_fingerprint(replay_records(records)) == view_fingerprint(
            replay_records(ra + rb + rc)
        )


#: A two-scenario campaign small enough to resume once per example.
REFS_SPEC = {
    "name": "trace-ref-properties", "ccas": ["reno", "cubic"], "modes": ["traffic"],
    "objectives": ["throughput"], "conditions": [{"name": "base"}],
    "budget": {"population_size": 4, "generations": 3, "duration": 0.12},
    "seed": 7, "seed_limit": 2,
}


def _resume_serial(corpus_dir: str) -> str:
    return CampaignRunner.resume(corpus_dir, telemetry=False).run().deterministic_digest()


def _lines(corpus_dir) -> list:
    with open(CampaignJournal.corpus_path(str(corpus_dir)), "rb") as handle:
        return handle.read().splitlines(keepends=True)


@pytest.fixture(scope="module")
def ref_journal(tmp_path_factory):
    """The journal of an uninterrupted run of ``REFS_SPEC``, and its digest."""
    root = tmp_path_factory.mktemp("refs")
    result = CampaignRunner(
        CampaignSpec.from_dict(REFS_SPEC), CorpusStore(str(root / "serial")),
        register_attacks=False, telemetry=False,
    ).run()
    return _lines(root / "serial"), result.deterministic_digest()


@given(
    at=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    torn=st.booleans(),
    merged=st.booleans(),
    compacted=st.booleans(),
)
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_kill_point_keeps_every_trace_reference_and_resumes_bit_identically(
    at, torn, merged, compacted, ref_journal
):
    """Killed after any record (or half-way through the next one), merged
    with an earlier cut of itself and compacted or not: every digest a kept
    record names was carried before it, and the resume is the uninterrupted run."""
    lines, digest = ref_journal
    count = 1 + int(at * (len(lines) - 1))
    tail = lines[count][: len(lines[count]) // 2] if torn and count < len(lines) else b""
    with tempfile.TemporaryDirectory() as tmp:
        corpus_dir = os.path.join(tmp, "corpus")
        os.makedirs(corpus_dir)
        path = CampaignJournal.corpus_path(corpus_dir)
        with open(path, "wb") as handle:
            handle.write(b"".join(lines[:count]) + tail)
        if merged:
            earlier = os.path.join(tmp, "earlier.jsonl")
            with open(earlier, "wb") as handle:
                handle.write(b"".join(lines[: 1 + count // 2]))
            merge_journals([earlier, path], path)
        if compacted:
            with CampaignJournal(path, fsync=False) as journal:
                journal.compact()
        assert dangling_refs(CampaignJournal(path).records()) == []
        assert _resume_serial(corpus_dir) == digest
        assert dangling_refs(CampaignJournal(path).records()) == []


CRASHSIM = os.path.join(os.path.dirname(__file__), "crashsim.py")


def _crashsim(corpus_dir: str, spec_path: str, *injection: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(CRASHSIM), "..", "src"))
    return subprocess.run(
        [sys.executable, CRASHSIM, "--corpus", corpus_dir, "--spec", spec_path, *injection],
        env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def crashsim_baseline(tmp_path_factory):
    """The serial spec run uninterrupted by the crash harness (builtins registered)."""
    root = tmp_path_factory.mktemp("crashsim")
    spec_path = str(root / "spec.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(REFS_SPEC, handle)
    done = _crashsim(str(root / "baseline"), spec_path)
    assert done.returncode == 0, done.stderr
    return spec_path, json.loads(done.stdout.splitlines()[-1])["digest"]


@pytest.mark.parametrize("injection", [
    ("--point", "mid-append", "--nth", "9"),
    ("--point", "mid-append", "--nth", "2", "--event-type", "generation_checkpoint"),
    ("--point", "post-append", "--nth", "8"),
    ("--point", "post-checkpoint", "--nth", "4"),
], ids=lambda injection: "-".join(injection[1::2]))
def test_a_crashsim_kill_leaves_every_trace_reference_resolvable(injection, tmp_path, crashsim_baseline):
    """SIGKILLed by the crash harness (a torn append, or right after a
    journaled insert or checkpoint): the journal left behind names no trace
    it does not carry, and resumes to the uninterrupted run."""
    spec_path, digest = crashsim_baseline
    corpus_dir = str(tmp_path / "corpus")
    assert _crashsim(corpus_dir, spec_path, *injection).returncode == -signal.SIGKILL
    journal = CampaignJournal.corpus_path(corpus_dir)
    assert dangling_refs(CampaignJournal(journal).records()) == []
    assert _resume_serial(corpus_dir) == digest
    assert dangling_refs(CampaignJournal(journal).records()) == []
