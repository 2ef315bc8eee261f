"""End-to-end tests for the dashboard server: endpoints, replay, invariance.

Two acceptance properties anchor this file:

* **Replay bit-identity** — an ``/api/replay`` score equals the
  ``repro-campaign replay`` (``replay_corpus``) score for the same entry and
  CCA, exactly, because the HTTP path shares the CLI's evaluation path
  rather than re-implementing it; and
* **Observational invariance** — a campaign run with a dashboard attached
  and actively polled produces bit-identical deterministic digests, corpus
  fingerprints and behavior maps to an unobserved control run.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.campaign import CampaignRunner, CampaignSpec, CorpusStore, replay_corpus
from repro.campaign.corpus import read_corpus_index
from repro.cli import campaign_main
from repro.coverage.archive import BehaviorArchive
from repro.obs.status import collect_status
from repro.serve.server import DashboardServer

REPLAY_CCAS = ["reno", "cubic", "bbr"]


def tiny_spec(**overrides) -> CampaignSpec:
    payload = {
        "name": "serve-test",
        "ccas": ["cubic"],
        "modes": ["traffic"],
        "objectives": ["throughput"],
        "conditions": [{"name": "base"}],
        "budget": {"population_size": 4, "generations": 2, "duration": 1.5},
        "seed": 0,
        "seed_limit": 2,
    }
    payload.update(overrides)
    return CampaignSpec.from_dict(payload)


def run_campaign(corpus_dir, register_attacks=False, **spec_overrides):
    runner = CampaignRunner(
        tiny_spec(**spec_overrides),
        CorpusStore(str(corpus_dir)),
        register_attacks=register_attacks,
    )
    return runner.run()


def fetch(server, path, timeout=120.0):
    """GET a path; returns ``(status, parsed-or-bytes)`` without raising."""
    try:
        with urllib.request.urlopen(server.url + path, timeout=timeout) as resp:
            body = resp.read()
            status = resp.status
            content_type = resp.headers.get("Content-Type", "")
    except urllib.error.HTTPError as error:
        body = error.read()
        status = error.code
        content_type = error.headers.get("Content-Type", "")
    if content_type.startswith("application/json"):
        return status, json.loads(body)
    return status, body


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    corpus_dir = tmp_path_factory.mktemp("serve-corpus")
    result = run_campaign(corpus_dir, register_attacks=True)
    return corpus_dir, result


@pytest.fixture(scope="module")
def server(campaign):
    corpus_dir, _ = campaign
    with DashboardServer(str(corpus_dir)) as running:
        yield running


class TestEndpoints:
    def test_dashboard_html(self, server):
        status, body = fetch(server, "/")
        assert status == 200
        assert b"<!doctype html>" in body.lower()
        assert b"/api/status" in body

    def test_status_matches_cli_shaping(self, campaign, server):
        """``/api/status`` is ``collect_status`` verbatim, not a re-fold."""
        corpus_dir, _ = campaign
        status, payload = fetch(server, "/api/status")
        assert status == 200
        expected = collect_status(str(corpus_dir))
        # The elapsed clock differs between calls on a live campaign, but a
        # finished one folds deterministically.
        assert json.dumps(payload, sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )
        assert payload["state"] == "complete"
        assert payload["manifest_present"] is True
        assert payload["result_digest"]

    def test_stream_offset_contract(self, server):
        status, first = fetch(server, "/api/stream?offset=0")
        assert status == 200
        assert first["records"] and not first["reset"]
        types = [record["type"] for record in first["records"]]
        assert types[0] == "campaign_start" and types[-1] == "campaign_complete"
        # Carrying the returned offset back yields an empty, same-offset batch.
        status, second = fetch(server, f"/api/stream?offset={first['offset']}")
        assert status == 200
        assert second["records"] == []
        assert second["offset"] == first["offset"]
        assert second["reset"] is False

    def test_corpus_index_and_entry(self, campaign, server):
        corpus_dir, _ = campaign
        status, index = fetch(server, "/api/corpus")
        assert status == 200
        assert index["entries"] == len(index["rows"]) > 0
        expected = read_corpus_index(str(corpus_dir))
        assert {row["fingerprint"] for row in index["rows"]} == set(expected)
        fingerprint = index["rows"][0]["fingerprint"]
        status, entry = fetch(server, f"/api/corpus/{fingerprint}")
        assert status == 200
        assert entry["fingerprint"] == fingerprint
        assert entry["provenance"][0]["fingerprint"] == fingerprint

    def test_corpus_entry_404_and_traversal_guard(self, server):
        status, payload = fetch(server, "/api/corpus/nonexistent0000")
        assert status == 404 and "error" in payload
        status, payload = fetch(server, "/api/corpus/..%2F..%2Findex")
        assert status == 404 and "error" in payload

    def test_coverage_matches_archive(self, campaign, server):
        corpus_dir, _ = campaign
        status, payload = fetch(server, "/api/coverage")
        assert status == 200
        archived = BehaviorArchive.load(BehaviorArchive.corpus_path(str(corpus_dir)))
        assert payload["cells"] == len(archived) > 0
        assert payload["sources"]["archive_cells"] == len(archived)
        for heat in payload["heatmap"].values():
            assert len(heat["counts"]) == len(heat["rows"])
            assert all(len(row) == len(heat["cols"]) for row in heat["counts"])
        for gap in payload["gaps"].values():
            assert 0 < gap["stall_classes_seen"] <= gap["stall_classes_total"]
            assert 0 < gap["goodput_buckets_seen"] <= gap["goodput_buckets_total"]

    def test_rankings_cover_campaign_ccas(self, campaign, server):
        _, result = campaign
        status, payload = fetch(server, "/api/rankings")
        assert status == 200
        ccas = {row["cca"] for row in payload["rows"]}
        assert "cubic" in ccas
        assert payload["scenarios_completed"] == len(result.outcomes)
        for row in payload["rows"]:
            if row["cca"] == "cubic":
                assert row["scenarios_completed"] == 1
                assert row["evaluations"] > 0

    def test_prometheus_exposition(self, server):
        status, body = fetch(server, "/metrics")
        assert status == 200
        text = body.decode("utf-8")
        assert "# TYPE repro_fuzzer_evaluations counter" in text
        # Text exposition: every sample line is "name{labels} value" and
        # belongs to the family its preceding # TYPE line declares.
        family, kind, samples = None, None, 0
        for line in filter(None, map(str.strip, text.splitlines())):
            if line.startswith("# TYPE "):
                _, _, family, kind = line.split()
            elif not line.startswith("#"):
                name, value = line.rsplit(None, 1)
                float(value)
                suffixes = ("_bucket", "_count", "_sum") if kind == "histogram" else ("",)
                assert name.split("{")[0] in {family + suffix for suffix in suffixes}, line
                samples += 1
        assert samples

    def test_unknown_route_404(self, server):
        status, payload = fetch(server, "/api/nope")
        assert status == 404 and "error" in payload

    def test_replay_client_errors(self, campaign, server):
        status, payload = fetch(server, "/api/replay/nonexistent0000?cca=reno")
        assert status == 404 and "error" in payload
        _, index = fetch(server, "/api/corpus")
        fingerprint = index["rows"][0]["fingerprint"]
        status, payload = fetch(server, f"/api/replay/{fingerprint}")
        assert status == 400 and "cca" in payload["error"]
        status, payload = fetch(server, f"/api/replay/{fingerprint}?cca=bogus")
        assert status == 400 and "bogus" in payload["error"]


class TestServeCommand:
    def test_serve_mounts_a_directory_until_interrupted(self, tmp_path, monkeypatch, capsys):
        """``repro-campaign serve`` in-process: any directory mounts (even an empty one),
        serves, creates nothing, and Ctrl-C stops it cleanly."""
        seen = {}

        def serve_one_request_then_interrupt(server):
            server.start()
            seen["corpus"] = fetch(server, "/api/corpus")
            raise KeyboardInterrupt

        monkeypatch.setattr(
            DashboardServer, "serve_forever", serve_one_request_then_interrupt
        )
        assert campaign_main(["serve", str(tmp_path), "--port", "0"]) == 0
        status, payload = seen["corpus"]
        assert status == 200 and payload["entries"] == 0
        out = capsys.readouterr().out
        assert f"serving {tmp_path} at http://127.0.0.1:" in out and "stopping" in out
        assert list(tmp_path.iterdir()) == []


class TestReplayBitIdentity:
    @pytest.mark.parametrize("cca", REPLAY_CCAS)
    def test_api_replay_equals_replay_corpus(self, campaign, server, cca):
        """The acceptance criterion: HTTP replay == CLI replay, exactly,
        for every corpus entry (builtin attacks included) per CCA."""
        corpus_dir, _ = campaign
        report = replay_corpus(CorpusStore(str(corpus_dir)), cca)
        assert report.rows
        for row in report.rows:
            status, payload = fetch(
                server, f"/api/replay/{row.fingerprint}?cca={cca}"
            )
            assert status == 200
            assert payload["score"]["total"] == row.replay_score
            assert payload["summary"] == row.summary
            assert payload["original_score"] == row.original_score

    def test_api_replay_equals_the_replay_command_output(self, campaign, server, tmp_path, capsys):
        """The same, against what ``repro-campaign replay --output`` writes."""
        corpus_dir, _ = campaign
        out_path = tmp_path / "cli-replay.json"
        assert campaign_main(
            ["replay", "--corpus", str(corpus_dir), "--cca", "bbr", "--output", str(out_path)]
        ) == 0
        capsys.readouterr()
        rows = json.loads(out_path.read_text())["rows"]
        assert rows
        for row in rows:
            status, payload = fetch(server, f"/api/replay/{row['fingerprint']}?cca=bbr")
            assert status == 200
            assert payload["score"]["total"] == row["replay"]

    def test_repeat_replay_is_cached_and_identical(self, server):
        _, index = fetch(server, "/api/corpus")
        fingerprint = index["rows"][0]["fingerprint"]
        _, first = fetch(server, f"/api/replay/{fingerprint}?cca=reno")
        status, second = fetch(server, f"/api/replay/{fingerprint}?cca=reno")
        assert status == 200
        assert second["cached"] is True
        assert second["score"] == first["score"]
        assert second["series"] == first["series"]
        assert second["series"]["windowed_throughput"]
        status, stats = fetch(server, "/api/replay-stats")
        assert status == 200
        assert stats["cache"]["hits"] >= 1
        assert stats["series_memoized"] >= 1


class TestObservationalInvariance:
    def test_attached_dashboard_is_bit_invisible(self, tmp_path):
        """The acceptance criterion: a campaign polled by a live dashboard
        produces bit-identical artifacts to an unobserved control run."""
        control_dir = tmp_path / "control"
        observed_dir = tmp_path / "observed"
        observed_dir.mkdir()
        control = run_campaign(control_dir, register_attacks=True)

        polled_paths = [
            "/api/status", "/api/stream?offset=0", "/api/corpus",
            "/api/coverage", "/api/rankings", "/api/replay-stats",
            "/metrics", "/",
        ]
        stop = threading.Event()
        failures = []

        def hammer(running):
            while not stop.is_set():
                for path in polled_paths:
                    try:
                        status, _ = fetch(running, path, timeout=30.0)
                        if status != 200:
                            failures.append((path, status))
                    except Exception as exc:  # noqa: BLE001
                        failures.append((path, repr(exc)))
                # Replay whatever entries exist mid-run (read-only sims).
                try:
                    _, index = fetch(running, "/api/corpus", timeout=30.0)
                    rows = index.get("rows") or []
                    if rows:
                        fetch(
                            running,
                            f"/api/replay/{rows[0]['fingerprint']}?cca=reno",
                            timeout=60.0,
                        )
                except Exception as exc:  # noqa: BLE001
                    failures.append(("/api/replay", repr(exc)))

        with DashboardServer(str(observed_dir)) as running:
            poller = threading.Thread(target=hammer, args=(running,))
            poller.start()
            try:
                observed = run_campaign(observed_dir, register_attacks=True)
            finally:
                stop.set()
                poller.join(timeout=60.0)

        assert not failures, f"dashboard polls failed mid-campaign: {failures[:5]}"
        assert observed.deterministic_digest() == control.deterministic_digest()
        assert read_corpus_index(str(observed_dir)) == read_corpus_index(
            str(control_dir)
        )
        assert BehaviorArchive.load(
            BehaviorArchive.corpus_path(str(observed_dir))
        ).to_dict() == BehaviorArchive.load(BehaviorArchive.corpus_path(str(control_dir))).to_dict()
