"""Dashboard reads racing campaign writes: torn and compacted state.

The server's error contract is that a ``/api/*`` endpoint never returns a
500 and never a partial JSON body, no matter what half-written state the
mounted directory is in.  These tests drive every endpoint against the
states a live campaign actually produces mid-write — torn ``metrics.jsonl``
and ``journal.jsonl`` tails, mid-compaction snapshots, a journal an older
version's worker fleet wrote — plus outright garbage,
and a property test pinning the incremental tail reader against whole-file
reads under arbitrary chunked/torn append schedules, and the dashboard's
stream follower against that cold reader.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs.status as status_module
import repro.serve.query as query_module
from repro.campaign import CorpusReader
from repro.cli import campaign_main
from repro.exec.cache import cca_identity
from repro.journal.events import make_record
from repro.journal.log import CampaignJournal, read_corpus_journal_view
from repro.journal.view import FleetJournalError
from repro.obs.sinks import METRICS_FILENAME, read_metrics, tail_metrics_records
from repro.obs.status import collect_status
from repro.serve.query import DashboardQuery
from repro.serve.server import DashboardServer
from repro.tcp.cca.reno import Reno

API_PATHS = [
    "/",
    "/api/status",
    "/api/stream?offset=0",
    "/api/corpus",
    "/api/corpus/deadbeef",
    "/api/coverage",
    "/api/rankings",
    "/api/replay/deadbeef?cca=reno",
    "/api/replay-stats",
    "/metrics",
]


def fetch_raw(server, path, timeout=30.0):
    """GET a path; returns ``(status, content_type, body-bytes)``."""
    try:
        with urllib.request.urlopen(server.url + path, timeout=timeout) as resp:
            return resp.status, resp.headers.get("Content-Type", ""), resp.read()
    except urllib.error.HTTPError as error:
        return error.code, error.headers.get("Content-Type", ""), error.read()


def assert_all_endpoints_wellformed(server):
    """Every endpoint: no 500, and JSON bodies parse completely."""
    for path in API_PATHS:
        status, content_type, body = fetch_raw(server, path)
        assert status in (200, 400, 404), f"{path} -> {status}"
        if content_type.startswith("application/json"):
            payload = json.loads(body)  # raises on torn/partial JSON
            assert isinstance(payload, dict)
        else:
            assert body, f"{path} returned an empty non-JSON body"


def snapshot_dir(path):
    """(name, size, mtime_ns) for every file under ``path``."""
    entries = []
    for root, _, files in os.walk(path):
        for name in sorted(files):
            full = os.path.join(root, name)
            stat = os.stat(full)
            entries.append(
                (os.path.relpath(full, path), stat.st_size, stat.st_mtime_ns)
            )
    return sorted(entries)


def write_journal(corpus_dir, records):
    path = CampaignJournal.corpus_path(str(corpus_dir))
    with open(path, "a", encoding="utf-8") as handle:
        for record in records:
            handle.write(record.to_line())
    return path


def outcome_data(scenario_id, **overrides):
    outcome = {
        "best_fitness": -1.0,
        "best_fingerprint": "f" * 32,
        "evaluations": 10,
        "cache_hits": 2,
        "seeds_injected": 1,
        "new_corpus_entries": 1,
        "converged_generation": 1,
        "wall_time_s": 0.5,
        "behavior_cells": 3,
    }
    outcome.update(overrides)
    return {"scenario_id": scenario_id, "outcome": outcome}


class TestDegradedDirectories:
    def test_empty_dir_is_sane_and_untouched(self, tmp_path):
        """The observational guarantee at its starkest: serving an empty
        directory answers every endpoint and creates no files."""
        corpus_dir = tmp_path / "empty"
        corpus_dir.mkdir()
        with DashboardServer(str(corpus_dir)) as server:
            before = snapshot_dir(corpus_dir)
            assert_all_endpoints_wellformed(server)
            status, _, body = fetch_raw(server, "/api/status")
            assert status == 200
            assert json.loads(body)["state"] == "unknown"
        assert snapshot_dir(corpus_dir) == before == []

    def test_garbage_artifacts_never_500(self, tmp_path):
        corpus_dir = tmp_path / "garbage"
        corpus_dir.mkdir()
        (corpus_dir / "index.json").write_text("{not json", encoding="utf-8")
        (corpus_dir / "behavior_map.json").write_text("[]", encoding="utf-8")
        # One well-formed entry between two the store's parser drops.
        (corpus_dir / "quarantine.json").write_text(
            '{"entries": [1, {"fingerprint": "x", "cca": "reno", "kind": "crash"}, {"nope": 1}]}',
            encoding="utf-8",
        )
        (corpus_dir / "run_manifest.json").write_text("\x00\x01", encoding="utf-8")
        (corpus_dir / "journal.jsonl").write_text(
            "complete garbage\n{\"half\": ", encoding="utf-8"
        )
        (corpus_dir / METRICS_FILENAME).write_text(
            '{"type": "campaign_start", "t": 1.0, "spec": {}}\n{"torn',
            encoding="utf-8",
        )
        with DashboardServer(str(corpus_dir)) as server:
            before = snapshot_dir(corpus_dir)
            assert_all_endpoints_wellformed(server)
            # The one complete metrics line is served; the torn tail is not.
            _, _, body = fetch_raw(server, "/api/stream?offset=0")
            records = json.loads(body)["records"]
            assert [r["type"] for r in records] == ["campaign_start"]
            # Observers degrade, they do not raise: the garbage manifest
            # reads as "no manifest", not as the server's catch-all error.
            _, _, body = fetch_raw(server, "/api/status")
            status = json.loads(body)
            assert "error" not in status
            assert status["state"] == "running"
            assert status["manifest_present"] is False
            # ... and count what the corpus reader loads, through its parser.
            assert status["quarantine_entries"] == 1
            assert collect_status(corpus_dir)["quarantine_entries"] == 1
            assert len(CorpusReader(str(corpus_dir)).quarantine) == 1
        assert snapshot_dir(corpus_dir) == before

    def test_torn_metrics_tail_heals_on_completion(self, tmp_path):
        corpus_dir = tmp_path / "torn"
        corpus_dir.mkdir()
        metrics = corpus_dir / METRICS_FILENAME
        line1 = json.dumps({"type": "campaign_start", "t": 1.0, "spec": {}})
        line2 = json.dumps({"type": "generation", "t": 2.0, "generation": 0})
        metrics.write_text(line1 + "\n" + line2[:10], encoding="utf-8")
        with DashboardServer(str(corpus_dir)) as server:
            _, _, body = fetch_raw(server, "/api/stream?offset=0")
            first = json.loads(body)
            assert [r["type"] for r in first["records"]] == ["campaign_start"]
            # The writer finishes its append; the next poll from the carried
            # offset returns exactly the completed record.
            with open(metrics, "a", encoding="utf-8") as handle:
                handle.write(line2[10:] + "\n")
            _, _, body = fetch_raw(
                server, f"/api/stream?offset={first['offset']}"
            )
            second = json.loads(body)
            assert [r["type"] for r in second["records"]] == ["generation"]
            assert second["reset"] is False

    def test_stream_reset_after_truncation(self, tmp_path):
        corpus_dir = tmp_path / "shrink"
        corpus_dir.mkdir()
        metrics = corpus_dir / METRICS_FILENAME
        metrics.write_text(
            json.dumps({"type": "campaign_start", "t": 1.0}) + "\n" * 1,
            encoding="utf-8",
        )
        with DashboardServer(str(corpus_dir)) as server:
            _, _, body = fetch_raw(server, "/api/stream?offset=0")
            offset = json.loads(body)["offset"]
            metrics.write_text("", encoding="utf-8")
            _, _, body = fetch_raw(server, f"/api/stream?offset={offset}")
            payload = json.loads(body)
            assert payload["reset"] is True
            assert payload["offset"] == 0


class TestJournalStates:
    def test_mid_compaction_snapshot_plus_tail(self, tmp_path):
        """Rankings fold a compaction snapshot and records appended after
        it identically to the uncompacted journal."""
        corpus_dir = tmp_path / "compact"
        corpus_dir.mkdir()
        records = [
            make_record(1, "campaign_start", {"spec": {"name": "t"}}),
            make_record(
                2, "scenario_complete", outcome_data("reno/traffic/throughput/base")
            ),
        ]
        path = write_journal(corpus_dir, records)
        CampaignJournal(path).compact()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(
                make_record(
                    10,
                    "scenario_complete",
                    outcome_data("cubic/traffic/throughput/base"),
                ).to_line()
            )
        with DashboardServer(str(corpus_dir)) as server:
            assert_all_endpoints_wellformed(server)
            _, _, body = fetch_raw(server, "/api/rankings")
            payload = json.loads(body)
            assert payload["scenarios_completed"] == 2
            assert {row["cca"] for row in payload["rows"]} == {"reno", "cubic"}

    def test_a_mounted_dashboard_follows_the_journal_through_every_state(self, tmp_path):
        """One server, one journal cursor, and the file changes under it the
        ways a live campaign changes it: a half-written append, its second
        half, another process's compaction, a shorter half-copied overwrite, a
        longer one.
        Every poll answers from the file's current bytes, and the dashboard
        creates, locks and repairs nothing."""
        corpus_dir = tmp_path / "followed"
        corpus_dir.mkdir()
        path = write_journal(corpus_dir, [
            make_record(1, "campaign_start", {"spec": {"name": "t"}}),
            make_record(2, "scenario_complete", outcome_data("reno/traffic/throughput/base")),
        ])

        def poll(server):
            before = snapshot_dir(corpus_dir)
            _, _, body = fetch_raw(server, "/api/rankings")
            rankings = json.loads(body)
            _, _, body = fetch_raw(server, "/api/coverage")
            sources = json.loads(body)["sources"]
            assert snapshot_dir(corpus_dir) == before
            return rankings["scenarios_completed"], sources["torn_records"]

        with DashboardServer(str(corpus_dir)) as server:
            assert poll(server) == (1, 0)
            line = make_record(
                3, "scenario_complete", outcome_data("cubic/traffic/throughput/base")
            ).to_line()
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(line[:40])
            assert poll(server) == (1, 1)          # torn tail: counted, left unread
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(line[40:])
            assert poll(server) == (2, 0)          # ... and read whole once complete
            CampaignJournal(path).compact()        # a new file under the same path
            assert poll(server) == (2, 0)
            with open(path, "w", encoding="utf-8") as handle:      # same inode, shorter
                handle.write("half a copy\n" + line)
            assert poll(server) == (1, 1)          # interior garbage skipped and counted
            with open(path, "w", encoding="utf-8") as handle:      # same inode, longer
                for seq, cca in enumerate(("reno", "cubic", "bbr"), start=1):
                    handle.write(make_record(
                        seq, "scenario_complete", outcome_data(f"{cca}/traffic/throughput/base")
                    ).to_line())
            assert poll(server) == (3, 0)          # the line last read is gone: read afresh

    def test_a_fleet_journal_is_refused_before_serving(self, tmp_path, capsys):
        """A journal an earlier version's worker fleet wrote: ``serve``
        exits 2 naming the refusal, as every reader of the journal does, and
        leaves the directory as it was."""
        corpus_dir = tmp_path / "fleet"
        corpus_dir.mkdir()
        scenario = "bbr/traffic/throughput/base"
        write_journal(corpus_dir, [
            make_record(1, "campaign_start", {"spec": {"name": "t"}}),
            make_record(2, "scenario_lease", {
                "scenario_id": scenario, "lease_epoch": 1, "worker_id": "w1",
            }),
            make_record(3, "scenario_complete", outcome_data(scenario)),
        ])
        before = snapshot_dir(corpus_dir)
        with pytest.raises(FleetJournalError):
            read_corpus_journal_view(str(corpus_dir))
        with pytest.raises(SystemExit) as excinfo:
            campaign_main(["serve", str(corpus_dir), "--port", "0"])
        assert excinfo.value.code == 2
        assert "written by a worker fleet" in capsys.readouterr().err
        assert snapshot_dir(corpus_dir) == before

    def test_quarantine_counts_reach_rankings(self, tmp_path):
        corpus_dir = tmp_path / "quarantine"
        corpus_dir.mkdir()
        write_journal(corpus_dir, [
            make_record(1, "campaign_start", {"spec": {"name": "t"}}),
            make_record(2, "scenario_complete",
                        outcome_data("reno/traffic/throughput/base")),
            make_record(3, "job_quarantined", {
                "scenario_id": "reno/traffic/throughput/base",
                "fingerprint": "a" * 32, "cca": cca_identity(Reno()), "reason": "timeout",
            }),
        ])
        with DashboardServer(str(corpus_dir)) as server:
            _, _, body = fetch_raw(server, "/api/rankings")
            (row,) = json.loads(body)["rows"]
            assert row["quarantined"] == 1


class TestTailReaderProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        records=st.lists(
            st.fixed_dictionaries(
                {"type": st.sampled_from(["generation", "metrics", "span"]),
                 "n": st.integers(0, 999)}
            ),
            min_size=0, max_size=12,
        ),
        cut_seed=st.integers(0, 2**31 - 1),
        keep=st.integers(0, 11),
    )
    def test_chunked_reads_equal_whole_read(self, tmp_path_factory, records, cut_seed, keep):
        """Appending a metrics stream in arbitrary (torn) byte chunks and
        polling after every append yields exactly the whole-file record
        sequence — no record lost, duplicated, or partially parsed — which
        is also what the whole-file read returns (one parser).  A stream
        truncated and regrown shorter resets the carried offset."""
        import random

        blob = b"".join(
            (json.dumps(record) + "\n").encode("utf-8") for record in records
        )
        rng = random.Random(cut_seed)
        cuts = sorted(
            rng.sample(range(len(blob) + 1), min(len(blob) + 1, rng.randint(0, 6)))
        )
        chunks, previous = [], 0
        for cut in cuts + [len(blob)]:
            if cut > previous:
                chunks.append(blob[previous:cut])
                previous = cut

        path = tmp_path_factory.mktemp("tail") / METRICS_FILENAME
        offset, collected = 0, []
        for chunk in chunks:
            with open(path, "ab") as handle:
                handle.write(chunk)
            batch, offset = tail_metrics_records(path, offset)
            collected.extend(batch)
            for record in batch:
                assert set(record) == {"type", "n"}  # fully parsed, never torn
        final, offset = tail_metrics_records(path, offset)
        collected.extend(final)
        assert collected == records
        assert offset == len(blob)
        assert read_metrics(path) == records

        if records:
            regrown = records[: keep % len(records)]
            with open(path, "wb") as handle:
                for record in regrown:
                    handle.write((json.dumps(record) + "\n").encode("utf-8"))
            batch, new_offset = tail_metrics_records(path, offset)
            assert new_offset < offset                 # the reset signal
            assert batch == regrown
            assert tail_metrics_records(path, new_offset) == ([], new_offset)


#: Interior lines the one parser must keep or skip as ``json.loads`` of
#: their bytes does: not UTF-8, a BOM, NUL bytes, UTF-16, a lone surrogate,
#: JSON that is no record, and multi-byte UTF-8 that moves byte offsets.
ODD_LINES = [
    b"\xff\xfe not utf-8",
    b'\xef\xbb\xbf{"type": "bom", "n": 1}',
    b'{"type": "nul", "n": 2}\x00',
    b'\x00{"type": "nul", "n": 3}',
    '{"type": "utf16", "n": 4}'.encode("utf-16-le"),
    b'{"type": "surrogate \xed\xa0\x80", "n": 5}',
    '{"type": "café", "n": 6}'.encode("utf-8"),
    b'{"type": "cr", "n": 7}\r',
    b"[1, 2]",
    b'"type"',
    b'{"n": 8}',
    b"",
]


def reference_records(blob):
    """The records a reader that runs ``json.loads`` on each complete
    line's bytes keeps: dicts that carry a ``type``."""
    records = []
    for line in blob.split(b"\n")[:-1]:
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and "type" in record:
            records.append(record)
    return records


class TestDecodingOnce:
    @pytest.mark.parametrize("line", ODD_LINES + [b"\n".join(ODD_LINES)])
    def test_each_line_is_kept_or_skipped_as_its_bytes_parse(self, tmp_path, line):
        blob = b'{"type": "generation", "n": 0}\n' + line + b'\n{"type": "span", "n": 9}\n{"ty'
        path = tmp_path / METRICS_FILENAME
        path.write_bytes(blob)
        starts = []
        records, offset = tail_metrics_records(path, 0, starts)
        assert records == reference_records(blob)
        assert offset == blob.rindex(b"\n") + 1
        # Each start is where its record's line begins, in bytes.
        lines = blob[:offset].split(b"\n")[:-1]
        begins = [sum(len(previous) + 1 for previous in lines[:i]) for i in range(len(lines))]
        assert starts == [
            begin for begin, text in zip(begins, lines) if reference_records(text + b"\n")
        ]


def _record_line(kind, n):
    return (json.dumps({"type": kind, "n": n}) + "\n").encode("utf-8")


_STEPS = st.one_of(
    st.tuples(
        st.just("record"),
        st.sampled_from(["generation", "metrics", "span", "campaign_start", "campaign_resume"]),
        st.integers(0, 999),
    ),
    st.tuples(st.just("torn"), st.integers(1, 12), st.integers(0, 999)),
    st.tuples(st.just("odd"), st.sampled_from(range(len(ODD_LINES))), st.just(0)),
    st.tuples(st.just("truncate"), st.integers(0, 100), st.just(0)),
)


_RUN_STARTS = ("campaign_start", "campaign_resume")


def memory_offsets(blob):
    """The offsets a query that has followed ``blob`` answers from memory:
    the start of each record line of its current run, and the end of its
    complete lines."""
    end = blob.rfind(b"\n") + 1
    starts, kinds, position = [], [], 0
    for line in blob[:end].split(b"\n")[:-1]:
        kept = reference_records(line + b"\n")
        if kept:
            starts.append(position)
            kinds.append(kept[0]["type"])
        position += len(line) + 1
    cut = max((i for i, kind in enumerate(kinds) if i and kind in _RUN_STARTS), default=0)
    return {end} | set(starts[cut:])


class TestStreamFollowerProperty:
    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(_STEPS, min_size=1, max_size=14))
    def test_stream_answers_as_the_cold_reader(self, tmp_path_factory, steps):
        """One query that served ``status()`` and one asked only ``stream``:
        after every append, torn tail, odd line, new campaign or truncation,
        ``stream(offset)`` equals a cold ``tail_metrics_records(path,
        offset)`` at 0, at every line start, at every offset it returned, and
        at offsets off a boundary or past the end.  It reads cold exactly the
        offsets that are not a boundary of the current run."""
        corpus_dir = tmp_path_factory.mktemp("follow")
        path = corpus_dir / METRICS_FILENAME
        cold = []

        def counted(*args):
            cold.append(args[1])
            return tail_metrics_records(*args)

        watched, streamed = DashboardQuery(str(corpus_dir)), DashboardQuery(str(corpus_dir))
        returned = {0}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(query_module, "tail_metrics_records", counted)
            for kind, a, b in steps:
                blob = path.read_bytes() if path.exists() else b""
                if kind == "truncate":
                    blob = blob[: len(blob) * a // 100]
                    path.write_bytes(blob)             # in place: the inode stays
                else:
                    if kind == "record":
                        added = _record_line(a, b)
                    elif kind == "torn":
                        added = _record_line("generation", b)[:a]
                    else:
                        added = ODD_LINES[a] + b"\n"
                    with open(path, "ab") as handle:
                        handle.write(added)
                    blob += added
                watched.status()
                line_starts = {0} | {i + 1 for i, byte in enumerate(blob) if byte == 0x0A}
                offsets = sorted(line_starts | returned | {1, len(blob) + 7})
                for query in (streamed, watched):
                    for offset in offsets:
                        del cold[:]
                        answer = query.stream(offset)
                        records, new_offset = tail_metrics_records(path, offset)
                        assert answer == {
                            "records": records, "offset": new_offset, "reset": new_offset < offset,
                        }
                        assert (cold == []) == (offset in memory_offsets(blob))
                        returned.add(new_offset)
        watched.close()
        streamed.close()

    def test_a_light_pass_parses_each_record_of_one_campaign_once(self, tmp_path, monkeypatch):
        """``status()``, ``stream(0)`` and ``prometheus()`` on a fresh query
        parse a one-campaign stream once; with an earlier campaign before
        it, ``stream(0)`` reads the file cold and the current run's start
        is still answered from memory."""
        parsed = []

        def counted(*args):
            records, offset = tail_metrics_records(*args)
            parsed.append(len(records))
            return records, offset

        for module in (status_module, query_module):
            monkeypatch.setattr(module, "tail_metrics_records", counted)
        path = tmp_path / METRICS_FILENAME
        run = [_record_line("campaign_start", 0)] + [_record_line("generation", n) for n in range(5)]
        path.write_bytes(b"".join(run))
        query = DashboardQuery(str(tmp_path))
        query.status()
        assert len(query.stream(0)["records"]) == 6
        query.prometheus()
        assert sum(parsed) == 6
        query.close()

        earlier = b"".join(run[:3])
        path.write_bytes(earlier + b"".join(run))
        del parsed[:]
        query = DashboardQuery(str(tmp_path))
        query.status()
        assert len(query.stream(0)["records"]) == 9
        assert len(query.stream(len(earlier))["records"]) == 6
        assert sum(parsed) == 9 + 9
        query.close()

    def test_clients_sharing_one_follower_lose_and_repeat_no_record(self, tmp_path):
        """Stream clients, a status poller and a writer on one query, with
        more threads than cores and a short switch interval: each client that
        carries its offsets collects exactly the stream's records."""
        path = tmp_path / METRICS_FILENAME
        lines = [_record_line("campaign_start", 0)] + [
            _record_line("generation", n) for n in range(1, 400)
        ]
        query = DashboardQuery(str(tmp_path))
        written = threading.Event()
        collected = [[] for _ in range(4)]

        def write():
            with open(path, "ab") as handle:
                for line in lines:
                    handle.write(line[:7])       # torn, then whole
                    handle.flush()
                    handle.write(line[7:])
                    handle.flush()
            written.set()

        def follow(into):
            offset = 0
            while True:
                done = written.is_set()
                answer = query.stream(offset)
                into.extend(answer["records"])
                offset = answer["offset"]
                if done and not answer["records"]:
                    return

        def poll():
            while not written.is_set():
                query.status()
                query.prometheus()

        threads = [threading.Thread(target=follow, args=(into,)) for into in collected]
        threads += [threading.Thread(target=poll), threading.Thread(target=write)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        expected = [json.loads(line) for line in lines]
        assert collected == [expected] * 4
        query.close()
