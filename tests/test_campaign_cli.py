"""End-to-end tests for ``repro-campaign`` and the new satellite CLI flags."""

from __future__ import annotations

import json

import pytest

from repro.campaign import CorpusStore
from repro.cli import campaign_main, fuzz_main, simulate_main

TINY_SPEC = {
    "name": "cli-test",
    "ccas": ["reno", "cubic"],
    "modes": ["traffic"],
    "objectives": ["throughput"],
    "conditions": [{"name": "base"}, {"name": "shallow", "queue_capacity": 20}],
    "budget": {"population_size": 4, "generations": 2, "duration": 1.0},
    "seed": 11,
}


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(TINY_SPEC))
    return path


class TestCampaignRun:
    def test_run_produces_corpus_and_report(self, spec_path, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        exit_code = campaign_main(
            ["run", "--spec", str(spec_path), "--corpus", str(corpus_dir)]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "4 scenarios" in out
        assert "corpus:" in out
        assert (corpus_dir / "index.json").exists()
        assert (corpus_dir / "report.json").exists()
        report = json.loads((corpus_dir / "report.json").read_text())
        assert len(report["scenarios"]) == 4
        assert report["corpus"]["entries"] == len(CorpusStore(str(corpus_dir)))

    @pytest.mark.parametrize("extra", [[], ["--resume", "--spec", "spec.json"]])
    def test_usage_errors_leave_no_corpus_dir_behind(self, extra, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        with pytest.raises(SystemExit) as excinfo:
            campaign_main(["run", "--corpus", str(corpus_dir)] + extra)
        assert excinfo.value.code == 2
        assert "--spec" in capsys.readouterr().err
        assert not corpus_dir.exists()

    def test_run_twice_dedupes_into_same_corpus(self, spec_path, tmp_path, capsys):
        # A second run over the same corpus is seeded from the first run's
        # discoveries (the corpus feedback loop), so it may find *new* traces
        # — but anything it re-finds (builtins, carried-over seeds) must
        # dedupe into the existing entries rather than duplicate them.
        corpus_dir = tmp_path / "corpus"
        campaign_main(["run", "--spec", str(spec_path), "--corpus", str(corpus_dir)])
        first = CorpusStore(str(corpus_dir)).stats()
        campaign_main(["run", "--spec", str(spec_path), "--corpus", str(corpus_dir)])
        capsys.readouterr()
        store = CorpusStore(str(corpus_dir))
        second = store.stats()
        assert second["by_origin"]["builtin"] == first["by_origin"]["builtin"]
        assert any(entry.rediscoveries > 0 for entry in store.entries())

    def test_no_attacks_flag(self, spec_path, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        campaign_main(
            ["run", "--spec", str(spec_path), "--corpus", str(corpus_dir), "--no-attacks"]
        )
        capsys.readouterr()
        origins = {entry.origin for entry in CorpusStore(str(corpus_dir)).entries()}
        assert "builtin" not in origins

    def test_quiet_run_prints_only_the_report(self, spec_path, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        assert campaign_main(
            ["run", "--spec", str(spec_path), "--corpus", str(corpus_dir), "--quiet"]
        ) == 0
        out = capsys.readouterr().out
        assert "4 scenarios" in out          # the report itself still prints
        assert "generation " not in out      # progress is suppressed
        assert "campaign report written" not in out

    def test_no_telemetry_skips_metrics_files(self, spec_path, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        campaign_main(
            ["run", "--spec", str(spec_path), "--corpus", str(corpus_dir),
             "--no-telemetry"]
        )
        capsys.readouterr()
        assert not (corpus_dir / "metrics.jsonl").exists()
        assert not (corpus_dir / "run_manifest.json").exists()


class TestCampaignStatus:
    @pytest.fixture
    def corpus_dir(self, spec_path, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        campaign_main(["run", "--spec", str(spec_path), "--corpus", str(corpus_dir)])
        capsys.readouterr()
        return corpus_dir

    def test_status_renders_progress(self, corpus_dir, capsys):
        assert campaign_main(["status", str(corpus_dir)]) == 0
        out = capsys.readouterr().out
        assert "campaign 'cli-test' — COMPLETE" in out
        assert "scenarios: 4/4 complete" in out
        assert "cache hit rate" in out
        assert "reno/traffic/throughput/base" in out
        assert "manifest: present" in out
        # A torn manifest degrades to "no manifest", never to a traceback.
        manifest = corpus_dir / "run_manifest.json"
        manifest.write_bytes(manifest.read_bytes()[:40])
        assert campaign_main(["status", str(corpus_dir)]) == 0
        out = capsys.readouterr().out
        assert "campaign 'cli-test' — COMPLETE" in out
        assert "manifest:" not in out

    def test_status_json_round_trips(self, corpus_dir, capsys):
        assert campaign_main(["status", str(corpus_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["campaign"] == "cli-test"
        assert payload["state"] == "complete"
        assert payload["scenarios_total"] == 4

    def test_status_prometheus_export(self, corpus_dir, capsys):
        assert campaign_main(["status", str(corpus_dir), "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_fuzzer_evaluations counter" in out

    def test_status_without_telemetry_is_an_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            campaign_main(["status", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "no campaign telemetry" in capsys.readouterr().err


class TestCampaignReplayAndReport:
    @pytest.fixture
    def corpus_dir(self, spec_path, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        campaign_main(["run", "--spec", str(spec_path), "--corpus", str(corpus_dir)])
        capsys.readouterr()
        return corpus_dir

    def test_replay_deterministic_and_writes_json(self, corpus_dir, tmp_path, capsys):
        out_path = tmp_path / "replay.json"
        assert campaign_main(
            ["replay", "--corpus", str(corpus_dir), "--cca", "bbr",
             "--output", str(out_path)]
        ) == 0
        first = json.loads(out_path.read_text())
        capsys.readouterr()
        assert campaign_main(
            ["replay", "--corpus", str(corpus_dir), "--cca", "bbr",
             "--output", str(out_path)]
        ) == 0
        second = json.loads(out_path.read_text())
        capsys.readouterr()
        assert first == second
        assert first["replay_cca"] == "bbr"
        assert first["entries"] == len(CorpusStore(str(corpus_dir)))

    def test_report_summarises_corpus_and_last_run(self, corpus_dir, capsys):
        assert campaign_main(["report", "--corpus", str(corpus_dir)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out
        assert "last campaign: 'cli-test'" in out
        # A truncated report.json costs the last-campaign line, nothing else.
        report = corpus_dir / "report.json"
        report.write_bytes(report.read_bytes()[:40])
        assert campaign_main(["report", "--corpus", str(corpus_dir)]) == 0
        degraded = capsys.readouterr().out
        assert degraded == out[: out.index("\nlast campaign")]

    def test_replay_rejects_unknown_cca(self, corpus_dir, capsys):
        with pytest.raises(SystemExit):
            campaign_main(["replay", "--corpus", str(corpus_dir), "--cca", "nope"])
        capsys.readouterr()

    def test_replay_json_fingerprints_join_with_corpus_index(self, corpus_dir, tmp_path, capsys):
        out_path = tmp_path / "replay.json"
        campaign_main(
            ["replay", "--corpus", str(corpus_dir), "--cca", "reno", "--output", str(out_path)]
        )
        capsys.readouterr()
        payload = json.loads(out_path.read_text())
        store = CorpusStore(str(corpus_dir))
        for row in payload["rows"]:
            assert row["fingerprint"] in store
        for best in payload["best_by_objective"].values():
            assert best["fingerprint"] in store

    @pytest.mark.parametrize("command", ["replay", "report"])
    def test_missing_corpus_is_an_error_not_an_empty_corpus(self, command, tmp_path, capsys):
        missing = tmp_path / "no-such-corpus"
        argv = [command, "--corpus", str(missing)]
        if command == "replay":
            argv += ["--cca", "reno"]
        with pytest.raises(SystemExit) as excinfo:
            campaign_main(argv)
        assert excinfo.value.code == 2
        assert "no corpus at" in capsys.readouterr().err
        assert not missing.exists()


class TestFuzzOutputDir:
    def test_output_dir_dumps_top_k_with_metadata(self, tmp_path, capsys):
        out_dir = tmp_path / "found"
        exit_code = fuzz_main(
            [
                "--cca", "reno", "--mode", "traffic", "--population", "4",
                "--generations", "2", "--duration", "1.0", "--seed", "5",
                "--top", "3", "--output-dir", str(out_dir),
            ]
        )
        assert exit_code == 0
        assert "written to corpus" in capsys.readouterr().out
        store = CorpusStore(str(out_dir))
        assert 1 <= len(store) <= 3
        for entry in store.entries():
            assert entry.scenario_id == "cli/reno/traffic/throughput"
            assert entry.cca == "reno"
            assert entry.score is not None
            assert entry.condition["queue_capacity"] == 60

    def test_output_dir_feeds_campaign_replay(self, tmp_path, capsys):
        # The --output-dir dump IS a corpus: replayable as-is.
        out_dir = tmp_path / "found"
        fuzz_main(
            ["--cca", "reno", "--mode", "traffic", "--population", "4",
             "--generations", "2", "--duration", "1.0", "--output-dir", str(out_dir)]
        )
        capsys.readouterr()
        assert campaign_main(["replay", "--corpus", str(out_dir), "--cca", "cubic"]) == 0
        assert "replayed" in capsys.readouterr().out


class TestSimulateTraceAttackConflict:
    def test_trace_plus_attack_is_an_error(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        from repro.traces.trace import TrafficTrace

        trace_path.write_text(
            TrafficTrace(timestamps=[0.1], duration=1.0, max_packets=4).to_json()
        )
        with pytest.raises(SystemExit) as excinfo:
            simulate_main(
                ["--cca", "reno", "--duration", "1.0",
                 "--trace", str(trace_path), "--attack", "lowrate"]
            )
        assert excinfo.value.code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_trace_with_explicit_attack_none_is_fine(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        from repro.traces.trace import TrafficTrace

        trace_path.write_text(
            TrafficTrace(timestamps=[0.1], duration=1.0, max_packets=4).to_json()
        )
        assert simulate_main(
            ["--cca", "reno", "--duration", "1.0",
             "--trace", str(trace_path), "--attack", "none"]
        ) == 0
        capsys.readouterr()


class TestSharedRegistry:
    def test_cli_uses_shared_cca_registry(self):
        from repro import cli
        from repro.tcp.cca import CCA_FACTORIES

        assert cli.CCA_FACTORIES is CCA_FACTORIES
        assert set(CCA_FACTORIES) == {"reno", "cubic", "cubic-ns3bug", "bbr", "bbr-fixed"}

    def test_cca_factory_lookup_errors(self):
        from repro.tcp.cca import cca_factory

        with pytest.raises(ValueError, match="unknown CCA"):
            cca_factory("vegas")
