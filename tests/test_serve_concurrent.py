"""Dashboard reads racing campaign writes: torn, compacted, fenced state.

The server's error contract is that a ``/api/*`` endpoint never returns a
500 and never a partial JSON body, no matter what half-written state the
mounted directory is in.  These tests drive every endpoint against the
states a live campaign actually produces mid-write — torn ``metrics.jsonl``
and ``journal.jsonl`` tails, mid-compaction snapshots, stale-epoch records
appended by a fenced (lease-stolen) zombie worker — plus outright garbage,
and a property test pinning the incremental tail reader against whole-file
reads under arbitrary chunked/torn append schedules.
"""

from __future__ import annotations

import json
import os
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import CorpusReader
from repro.exec import cca_identity
from repro.journal import CampaignJournal
from repro.journal.events import make_record
from repro.journal.log import read_corpus_journal_view
from repro.obs.sinks import METRICS_FILENAME, read_metrics, tail_metrics_records
from repro.obs.status import collect_status
from repro.serve import DashboardServer
from repro.tcp import Reno

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


def outcome_data(scenario_id, epoch=None, **overrides):
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
    data = {"scenario_id": scenario_id, "outcome": outcome}
    if epoch is not None:
        data["lease_epoch"] = epoch
    return data


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

    def test_stale_epoch_records_are_fenced(self, tmp_path):
        """A zombie worker's post-steal appends must not leak into rankings
        or coverage; they surface only as the fenced-record count."""
        corpus_dir = tmp_path / "fenced"
        corpus_dir.mkdir()
        scenario = "bbr/traffic/throughput/base"
        write_journal(corpus_dir, [
            make_record(1, "campaign_start", {"spec": {"name": "t"}}),
            make_record(2, "scenario_lease", {
                "scenario_id": scenario, "lease_epoch": 1, "worker_id": "w1",
            }),
            make_record(3, "scenario_lease", {
                "scenario_id": scenario, "lease_epoch": 2, "worker_id": "w2",
            }),
            # Zombie w1 completes with its stale epoch: fenced.
            make_record(4, "scenario_complete", outcome_data(
                scenario, epoch=1, best_fitness=-99.0, evaluations=999,
            )),
            make_record(5, "behavior_delta", {
                "scenario_id": scenario, "lease_epoch": 1,
                "cells": {"zombie/cell": {"cell": "zombie/cell", "score": 0.0}},
            }),
            # The steal's winner completes for real.
            make_record(6, "scenario_complete", outcome_data(
                scenario, epoch=2, best_fitness=-1.5,
            )),
        ])
        view = read_corpus_journal_view(str(corpus_dir))
        assert view.fenced_records == 2
        with DashboardServer(str(corpus_dir)) as server:
            assert_all_endpoints_wellformed(server)
            _, _, body = fetch_raw(server, "/api/rankings")
            rankings = json.loads(body)
            (row,) = rankings["rows"]
            assert row["cca"] == "bbr"
            assert row["worst_fitness"] == -1.5  # not the zombie's -99
            _, _, body = fetch_raw(server, "/api/coverage")
            coverage = json.loads(body)
            assert coverage["sources"]["fenced_records"] == 2
            assert "zombie/cell" not in json.dumps(coverage)

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
