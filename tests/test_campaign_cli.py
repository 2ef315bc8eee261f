"""End-to-end tests for ``repro-campaign`` and the new satellite CLI flags."""

from __future__ import annotations

import json
import re
import shutil

import pytest

from repro.campaign import CorpusStore
from repro.coverage import BehaviorArchive
from repro.cli import (
    campaign_main,
    coverage_main,
    fuzz_main,
    simulate_main,
    trace_main,
    triage_main,
)
from repro.journal.log import read_corpus_journal_view

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
        assert f"corpus: {len(CorpusStore(str(corpus_dir)))} entries" in out
        # The journal is the record of the outcome: nothing else copies it,
        # and ``report`` reads the run's totals back from it.
        assert not (corpus_dir / "report.json").exists()
        totals = re.search(r"\d+ simulations \(\+\d+ cache hits\)", out).group(0)
        assert campaign_main(["report", "--corpus", str(corpus_dir)]) == 0
        assert (
            f"last campaign: 'cli-test' — 4/4 scenarios complete, {totals}, "
            in capsys.readouterr().out
        )

    @pytest.mark.parametrize(
        "command, extra, message",
        [
            pytest.param("run", [], "--spec", id="extra0"),
            pytest.param("run", ["--resume", "--spec", "spec.json"], "--spec", id="extra1"),
            ("run", ["--spec", "spec.json", "--harvest-top-k", "0"], "--harvest-top-k"),
            ("run", ["--spec", "spec.json", "--job-timeout", "0"], "--job-timeout"),
        ],
    )
    def test_usage_errors_leave_no_corpus_dir_behind(
        self, command, extra, message, tmp_path, capsys
    ):
        corpus_dir = tmp_path / "corpus"
        with pytest.raises(SystemExit) as excinfo:
            campaign_main([command, "--corpus", str(corpus_dir)] + extra)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err
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

    def test_watch_renders_a_finished_campaign_once(self, corpus_dir, capsys):
        assert campaign_main(["status", str(corpus_dir), "--watch", "0.01"]) == 0
        watched = capsys.readouterr().out
        assert campaign_main(["status", str(corpus_dir)]) == 0
        assert watched == capsys.readouterr().out
        assert watched.count("campaign 'cli-test' — COMPLETE") == 1

    @pytest.mark.parametrize("extra", [["--watch", "0"], ["--watch", "1", "--prometheus"]])
    def test_watch_usage_errors(self, extra, corpus_dir, capsys):
        with pytest.raises(SystemExit) as excinfo:
            campaign_main(["status", str(corpus_dir)] + extra)
        assert excinfo.value.code == 2
        assert "--watch" in capsys.readouterr().err

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
        assert "\nlast campaign: 'cli-test' — 4/4 scenarios complete, " in out
        assert "unfinished" not in out
        # The line is the journal's: compacting it changes nothing.
        assert campaign_main(["compact", str(corpus_dir)]) == 0
        capsys.readouterr()
        assert campaign_main(["report", "--corpus", str(corpus_dir)]) == 0
        assert capsys.readouterr().out == out
        # A torn or missing journal costs the last-campaign line, nothing else.
        journal = corpus_dir / "journal.jsonl"
        for damage in (lambda: journal.write_bytes(journal.read_bytes()[:40]), journal.unlink):
            damage()
            assert campaign_main(["report", "--corpus", str(corpus_dir)]) == 0
            assert capsys.readouterr().out == out[: out.index("\nlast campaign")]

    def test_report_reads_a_run_without_telemetry(self, spec_path, tmp_path, capsys):
        corpus_dir = tmp_path / "quiet-corpus"
        campaign_main(
            ["run", "--spec", str(spec_path), "--corpus", str(corpus_dir), "--no-telemetry"]
        )
        capsys.readouterr()
        assert campaign_main(["report", "--corpus", str(corpus_dir)]) == 0
        assert "last campaign: 'cli-test' — 4/4 scenarios complete, " in capsys.readouterr().out

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


#: A small ``repro-fuzz`` search, and the campaign spec file it runs.
FUZZ_ARGV = [
    "--cca", "reno", "--mode", "traffic", "--population", "4",
    "--generations", "2", "--duration", "1.0", "--seed", "5",
]
FUZZ_SPEC = {
    "name": "repro-fuzz",
    "ccas": ["reno"],
    "modes": ["traffic"],
    "objectives": ["throughput"],
    "budget": {"population_size": 4, "generations": 2, "duration": 1.0},
    "seed": 5,
    "seed_limit": 0,
}


def _report_rows(corpus_dir):
    """The journaled scenario outcomes without their wall-clock field."""
    completed = read_corpus_journal_view(str(corpus_dir)).completed
    return {
        scenario_id: {key: value for key, value in payload["outcome"].items()
                      if key != "wall_time_s"}
        for scenario_id, payload in completed.items()
    }


class TestFuzzOutputDir:
    def test_output_dir_dumps_top_k_with_metadata(self, tmp_path, capsys):
        out_dir = tmp_path / "found"
        exit_code = fuzz_main(FUZZ_ARGV + ["--top", "3", "--output-dir", str(out_dir)])
        assert exit_code == 0
        assert "report.json" not in capsys.readouterr().out
        assert not (out_dir / "report.json").exists()
        store = CorpusStore(str(out_dir))
        assert 1 <= len(store) <= 3
        for entry in store.entries():
            assert entry.scenario_id == "reno/traffic/throughput/base"
            assert entry.campaign == "repro-fuzz"
            assert entry.cca == "reno"
            assert entry.score is not None
            assert entry.condition["queue_capacity"] == 60

    def test_output_dir_feeds_campaign_replay(self, tmp_path, capsys):
        # The --output-dir corpus is a campaign's: status, report and replay read it.
        out_dir = tmp_path / "found"
        assert fuzz_main(FUZZ_ARGV + ["--output-dir", str(out_dir)]) == 0
        capsys.readouterr()
        assert campaign_main(["status", str(out_dir), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["state"] == "complete"
        assert campaign_main(["report", "--corpus", str(out_dir)]) == 0
        assert "last campaign: 'repro-fuzz'" in capsys.readouterr().out
        assert campaign_main(["replay", "--corpus", str(out_dir), "--cca", "cubic"]) == 0
        assert "replayed" in capsys.readouterr().out


class TestFuzzIsACampaign:
    """``repro-fuzz`` is ``repro-campaign run --no-attacks`` on a one-scenario spec."""

    def test_output_dir_equals_the_matching_campaign_run(self, tmp_path, capsys):
        fuzz_dir, run_dir = tmp_path / "fuzz", tmp_path / "run"
        assert fuzz_main(FUZZ_ARGV + ["--top", "3", "--output-dir", str(fuzz_dir)]) == 0
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(FUZZ_SPEC))
        assert campaign_main(
            ["run", "--spec", str(spec_file), "--corpus", str(run_dir),
             "--no-attacks", "--harvest-top-k", "3"]
        ) == 0
        capsys.readouterr()

        def corpus_files(corpus_dir):
            paths = [corpus_dir / "index.json", *sorted((corpus_dir / "entries").iterdir())]
            return {path.relative_to(corpus_dir).as_posix(): path.read_bytes() for path in paths}

        assert corpus_files(fuzz_dir) == corpus_files(run_dir)
        assert _report_rows(fuzz_dir) == _report_rows(run_dir)

    @pytest.mark.parametrize("mode", ["traffic", "link", "loss"])
    def test_output_is_the_ga_best_at_the_scenario_seed(self, mode, tmp_path, monkeypatch, capsys):
        import tempfile

        from repro.campaign import CampaignSpec
        from repro.core.fuzzer import CCFuzz, FuzzConfig
        from repro.scoring.objectives import make_score_function
        from repro.tcp.cca import CCA_FACTORIES

        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        output = tmp_path / "best.json"
        argv = [*FUZZ_ARGV, "--mode", mode, "--output", str(output)]
        assert fuzz_main(argv) == 0
        # The corpus was temporary: removed, and its report never announced.
        assert list(scratch.iterdir()) == []
        assert "report.json" not in capsys.readouterr().out

        ga_seed = CampaignSpec(ccas=["reno"], modes=[mode], seed=5).expand()[0].seed
        direct = CCFuzz(
            CCA_FACTORIES["reno"],
            FuzzConfig(mode=mode, population_size=4, generations=2, duration=1.0, seed=ga_seed),
            score_function=make_score_function("throughput", mode),
        ).run()
        assert output.read_text() == direct.best_trace.to_json()

    def test_interrupted_run_resumes_through_campaign_run(self, tmp_path, monkeypatch, capsys):
        from repro.journal import CampaignJournal

        whole, broken = tmp_path / "whole", tmp_path / "broken"
        assert fuzz_main(FUZZ_ARGV + ["--output-dir", str(whole)]) == 0

        class Killed(Exception):
            pass

        append = CampaignJournal.append

        def append_then_die(self, type, data):
            record = append(self, type, data)
            if type == "generation_checkpoint":
                raise Killed
            return record

        monkeypatch.setattr(CampaignJournal, "append", append_then_die)
        with pytest.raises(Killed):
            fuzz_main(FUZZ_ARGV + ["--output-dir", str(broken)])
        monkeypatch.undo()
        assert campaign_main(["report", "--corpus", str(broken)]) == 0
        assert (
            "last campaign: 'repro-fuzz' — 0/1 scenarios complete (unfinished), "
            "0 simulations (+0 cache hits), 0.0s" in capsys.readouterr().out
        )
        assert campaign_main(["run", "--corpus", str(broken), "--resume"]) == 0
        capsys.readouterr()
        assert _report_rows(broken) == _report_rows(whole)

    @pytest.mark.parametrize("flag", ["--coverage-output=map.json", "--annealing-sigma=3",
                                      "--no-cache"])
    def test_flags_without_a_campaign_equivalent_are_gone(self, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            fuzz_main(FUZZ_ARGV + [flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_removed_guidance_mode_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            fuzz_main(FUZZ_ARGV + ["--guidance", "elites", "--output-dir", str(tmp_path / "d")])
        assert excinfo.value.code == 2
        assert "invalid choice: 'elites'" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @staticmethod
    def _journal_naming_elites(corpus_dir):
        """A journal written while "elites" was a guidance mode."""
        from repro.campaign import CampaignSpec
        from repro.journal import CampaignJournal

        spec = CampaignSpec.from_dict(dict(FUZZ_SPEC, guidance="novelty")).to_dict()
        spec["guidance"] = "elites"
        with CampaignJournal(CampaignJournal.corpus_path(str(corpus_dir))) as journal:
            journal.append("campaign_start", {
                "campaign": spec["name"],
                "spec": spec,
                "harvest_top_k": 3,
                "register_attacks": False,
                "archive_baseline": BehaviorArchive().to_dict(),
            })

    def test_resuming_a_journal_that_names_a_removed_guidance_mode(self, tmp_path, capsys):
        """Such a journal does not resume under another strategy: it is
        refused, naming the modes."""
        self._journal_naming_elites(tmp_path)
        before = (tmp_path / "journal.jsonl").read_bytes()
        with pytest.raises(SystemExit) as excinfo:
            campaign_main(["run", "--corpus", str(tmp_path), "--resume", "--no-telemetry"])
        assert excinfo.value.code == 2
        assert (
            "error: guidance must be one of ('score', 'novelty'), got 'elites'"
            in capsys.readouterr().err
        )
        assert (tmp_path / "journal.jsonl").read_bytes() == before

    def test_resume_usage_errors_create_nothing_with_telemetry_on(self, tmp_path, capsys):
        """Usage errors exit 2 and create nothing, telemetry on included: no
        corpus directory for a missing one, no metrics.jsonl beside a journal
        that cannot resume."""
        missing = tmp_path / "missing"
        with pytest.raises(SystemExit) as excinfo:
            campaign_main(["run", "--corpus", str(missing), "--resume"])
        assert excinfo.value.code == 2
        assert "nothing to resume" in capsys.readouterr().err
        assert not missing.exists()

        corpus_dir = tmp_path / "elites"
        self._journal_naming_elites(corpus_dir)
        before = {path.name: path.read_bytes() for path in corpus_dir.iterdir()}
        with pytest.raises(SystemExit) as excinfo:
            campaign_main(["run", "--corpus", str(corpus_dir), "--resume"])
        assert excinfo.value.code == 2
        assert "got 'elites'" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in corpus_dir.iterdir()} == before


class TestRangeUsageErrors:
    @pytest.mark.parametrize("main, argv", [
        (fuzz_main, []),
        (campaign_main, ["report", "--corpus", "corpus"]),
        (coverage_main, ["map", "map.json"]),
    ])
    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_top_must_be_at_least_one(self, main, argv, top, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--top", top])
        assert excinfo.value.code == 2
        assert f"--top must be at least 1, got {top}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--duration", "-1"], "duration must be positive"),
        (["--duration", "0"], "duration must be positive"),
        (["--rate-mbps", "0"], "bottleneck_rate_mbps must be positive"),
        (["--queue", "0"], "queue_capacity must be at least 1"),
        (["--rate-mbps", "inf"], "bottleneck_rate_mbps must be positive and finite"),
    ])
    @pytest.mark.parametrize("main, source", [
        (simulate_main, []), (triage_main, ["--attack", "lowrate", "--skip-minimize"]),
    ])
    def test_simulation_ranges_are_usage_errors(self, main, source, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--cca", "reno", *source, *argv])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error: " in err and message in err

    @pytest.mark.parametrize("main, argv, message", [
        (trace_main, ["generate", "--output", "t.json", "--mode", "link", "--duration", "0"],
         "duration must be positive"),
        (trace_main, ["generate", "--output", "t.json", "--mode", "traffic", "--duration", "-1"],
         "duration must be positive"),
        (trace_main, ["generate", "--output", "t.json", "--mode", "traffic", "--max-packets", "0"],
         "max_packets must be positive"),
        (trace_main, ["generate", "--output", "t.json", "--mode", "link", "--rate-mbps", "0"],
         "rate must be positive"),
        (trace_main, ["inspect", "t.json", "--window", "0"], "--window must be positive, got 0.0"),
        (campaign_main, ["serve", "corpus", "--port", "-1"], "--port must be in 0..65535, got -1"),
        (campaign_main, ["serve", "corpus", "--port", "70000"],
         "--port must be in 0..65535, got 70000"),
        (trace_main, ["generate", "--output", "t.json", "--mode", "traffic", "--duration", "nan"],
         "duration must be positive and finite"),
        (trace_main, ["generate", "--output", "t.json", "--mode", "link", "--duration", "inf"],
         "duration must be positive and finite"),
        (trace_main, ["generate", "--output", "t.json", "--mode", "link", "--rate-mbps", "nan"],
         "average rate must be positive and finite"),
        (fuzz_main, ["--duration", "inf"], "duration must be positive and finite"),
        # The other mode's sizing option is rejected, not ignored.
        (trace_main, ["generate", "--output", "t.json", "--mode", "link", "--max-packets", "7"],
         "--max-packets only applies to --mode traffic"),
        (trace_main, ["generate", "--output", "t.json", "--mode", "traffic", "--rate-mbps", "7"],
         "--rate-mbps only applies to --mode link"),
    ])
    def test_ranges_are_usage_errors(self, main, argv, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error: " in err and message in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("main, argv", [
        (trace_main, ["inspect", "t.json", "--window", "inf"]),
        (campaign_main, ["run", "--spec", "s.json", "--corpus", "c", "--job-timeout", "inf"]),
        (campaign_main, ["status", "c", "--watch", "inf"]),
    ], ids=["window", "job-timeout", "watch"])
    def test_an_infinite_interval_is_a_usage_error(self, main, argv, tmp_path, monkeypatch, capsys):
        # An infinite window once drew an empty chart instead of a refusal.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        flag = argv[-2]
        assert f"error: argument {flag}: {flag} must be finite, got inf" in (
            capsys.readouterr().err
        )
        assert list(tmp_path.iterdir()) == []


class TestBadSpecFiles:
    """A spec file whose values have the wrong JSON type exits 2 with an
    ``error:`` that names the key — never a traceback, a garbled message or
    a campaign run on the coerced value."""

    @pytest.mark.parametrize("spec, message", [
        ({"budget": {"population_size": "8"}}, "GA budget key 'population_size' must be int"),
        ({"conditions": [{"name": "x", "queue_capacity": "20"}]},
         "network condition key 'queue_capacity' must be int"),
        ({"budget": None}, "campaign spec key 'budget' must be GaBudget, got null"),
        ([1, 2], "campaign spec must be a JSON object, got [1, 2]"),
        ({"ccas": "reno"}, "campaign spec key 'ccas' must be List[str]"),
        ({"conditions": ["base"]}, "campaign spec key 'conditions' must be List[NetworkCondition]"),
        ({"seed": "abc"}, "campaign spec key 'seed' must be int"),
        ({"seed": True}, "campaign spec key 'seed' must be int, got true"),
        ({"conditions": [{"name": "x", "propagation_delay": float("nan")}]},
         "propagation_delay must be non-negative and finite"),
        # A GA budget never carried an early-stopping key, "elites" is no
        # longer a guidance mode, and there is no fleet for a lease to time.
        ({"budget": {"patience": 3}}, "unknown GA budget keys: patience"),
        ({"guidance": "elites"}, "guidance must be one of ('score', 'novelty'), got 'elites'"),
        ({"lease_ttl": 30.0}, "unknown campaign spec keys: lease_ttl"),
    ])
    @pytest.mark.parametrize("command", ["run"])
    def test_wrong_types_are_usage_errors(self, command, spec, message, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        corpus_dir = tmp_path / "corpus"
        with pytest.raises(SystemExit) as excinfo:
            campaign_main([command, "--spec", str(spec_file), "--corpus", str(corpus_dir)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error: " in err and message in err
        assert not corpus_dir.exists()


class TestBadTraceFiles:
    """A file that is not a trace exits 2 with ``error:`` wherever a trace
    file is read — never a traceback, and never a simulated NaN."""

    #: name -> (file content, what the error says)
    FILES = {
        "negative-duration": (
            {"type": "TrafficTrace", "duration": -1.0, "timestamps": [0.1]},
            "trace duration must be positive and finite",
        ),
        "missing-duration": ({"type": "TrafficTrace", "timestamps": [0.1]}, "malformed trace"),
        "list-duration": (
            {"type": "TrafficTrace", "duration": [1.0], "timestamps": [0.1]}, "malformed trace",
        ),
        "nan-duration": (
            {"type": "TrafficTrace", "duration": float("nan"), "timestamps": [0.1]},
            "trace duration must be positive and finite",
        ),
        "nan-timestamp": (
            {"type": "TrafficTrace", "duration": 1.0, "timestamps": [0.5, float("nan"), 0.2, 1.0]},
            "trace timestamps must be finite",
        ),
        "bad-base64": (
            {"type": "TrafficTrace", "duration": 1.0, "timestamps_f64le": "%%%%"}, "not base64",
        ),
        "ragged-blob": (
            {"type": "TrafficTrace", "duration": 1.0, "timestamps_f64le": "AAAA"},
            "not whole 8-byte items",
        ),
        # Such a file used to run at 1500 bytes while reporting 72 Mbps.
        "foreign-packet-size": (
            {"type": "LinkTrace", "duration": 1.0, "timestamps": [0.1], "mss_bytes": 9000},
            "malformed trace: mss_bytes is 9000",
        ),
    }

    @pytest.mark.parametrize("name", sorted(FILES))
    @pytest.mark.parametrize("main, argv", [
        (simulate_main, ["--cca", "reno", "--trace"]),
        (trace_main, ["inspect"]),
        (triage_main, ["--cca", "reno", "--skip-minimize", "--skip-robustness",
                       "--skip-differential", "--trace"]),
    ], ids=["simulate", "inspect", "triage"])
    def test_bad_trace_file_is_a_usage_error(self, main, argv, name, tmp_path, capsys):
        content, message = self.FILES[name]
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(content))
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, str(path)])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "error: " in captured.err and message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("main, argv", [
        (simulate_main, ["--cca", "reno", "--trace", "{path}"]),
        (triage_main, ["--cca", "reno", "--trace", "{path}", "--output", "{out}.json",
                       "--output-trace", "{out}-trace.json"]),
    ], ids=["simulate", "triage"])
    def test_a_foreign_packet_size_creates_nothing(self, main, argv, tmp_path, capsys):
        content, message = self.FILES["foreign-packet-size"]
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(content))
        with pytest.raises(SystemExit) as excinfo:
            main([arg.format(path=path, out=tmp_path / "out") for arg in argv])
        assert excinfo.value.code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]


class TestUnopenableInputFiles:
    """An input file that cannot be opened exits 2 with ``error: cannot read
    <path>: <reason>`` — never a traceback — and a launch creates no corpus."""

    @pytest.mark.parametrize("kind, reason", [
        ("missing", "No such file or directory"), ("directory", "Is a directory"),
    ])
    @pytest.mark.parametrize("main, argv", [
        (trace_main, ["inspect", "{path}"]),
        (simulate_main, ["--cca", "reno", "--trace", "{path}"]),
        (triage_main, ["--cca", "reno", "--trace", "{path}"]),
        (campaign_main, ["run", "--spec", "{path}", "--corpus", "{corpus}"]),
    ], ids=["inspect", "simulate", "triage", "run"])
    def test_unopenable_input_is_a_usage_error(self, main, argv, kind, reason, tmp_path, capsys):
        path = tmp_path / "input.json"
        if kind == "directory":
            path.mkdir()
        corpus_dir = tmp_path / "corpus"
        with pytest.raises(SystemExit) as excinfo:
            main([arg.format(path=path, corpus=corpus_dir) for arg in argv])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert f"error: cannot read {path}: {reason}\n" in captured.err
        assert captured.out == ""
        assert not corpus_dir.exists()


class TestSubcommandUsageErrors:
    """A subcommand's usage error shows that subcommand's usage line and name,
    not the program's."""

    @pytest.mark.parametrize("main, argv, prog, message", [
        (campaign_main, ["compact", "{missing}"], "repro-campaign compact", "no journal at"),
        (trace_main, ["inspect", "{missing}"], "repro-trace inspect", "cannot read"),
        (coverage_main, ["gaps", "{missing}"], "repro-coverage gaps",
         "no behavior map or corpus at"),
    ], ids=["campaign", "trace", "coverage"])
    def test_usage_error_names_the_subcommand(self, main, argv, prog, message, tmp_path, capsys):
        missing = tmp_path / "missing"
        with pytest.raises(SystemExit) as excinfo:
            main([arg.format(missing=missing) for arg in argv])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: {prog} [-h]")
        assert f"\n{prog}: error: {message}" in err


class TestUnreadableCorpusFiles:
    """A corpus file that cannot be read exits 2 with ``error:``, never a
    traceback, and leaves the corpus as it found it."""

    @pytest.fixture(params=["other-schema", "truncated"])
    def bad_map_dir(self, request, tmp_path):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        path = corpus_dir / "behavior_map.json"
        if request.param == "other-schema":
            path.write_text(json.dumps({"schema": 99}))
        else:
            BehaviorArchive().save(str(path))
            path.write_bytes(path.read_bytes()[:20])
        return corpus_dir

    @pytest.mark.parametrize("main, argv", [
        (coverage_main, ["map", "{dir}"]),
        (coverage_main, ["map", "{dir}/behavior_map.json"]),
        (coverage_main, ["diff", "{dir}", "{dir}"]),
        (coverage_main, ["gaps", "{dir}"]),
        (campaign_main, ["run", "--spec", "{spec}", "--corpus", "{dir}"]),
        (fuzz_main, ["--cca", "reno", "--population", "4", "--generations", "1",
                     "--duration", "1", "--output-dir", "{dir}"]),
    ], ids=["map", "map-file", "diff", "gaps", "run", "fuzz"])
    def test_bad_behavior_map_is_a_usage_error(
        self, main, argv, bad_map_dir, spec_path, capsys
    ):
        before = {path.name: path.read_bytes() for path in bad_map_dir.iterdir()}
        with pytest.raises(SystemExit) as excinfo:
            main([arg.format(dir=bad_map_dir, spec=spec_path) for arg in argv])
        assert excinfo.value.code == 2
        assert "error: behavior archive is missing, torn, or not schema" in (
            capsys.readouterr().err
        )
        assert {path.name: path.read_bytes() for path in bad_map_dir.iterdir()} == before

    @pytest.fixture(scope="class")
    def campaign_corpus(self, tmp_path_factory):
        spec = dict(TINY_SPEC, ccas=["reno"], conditions=[{"name": "base"}])
        spec_file = tmp_path_factory.mktemp("spec") / "spec.json"
        spec_file.write_text(json.dumps(spec))
        corpus_dir = tmp_path_factory.mktemp("journaled") / "corpus"
        assert campaign_main(
            ["run", "--spec", str(spec_file), "--corpus", str(corpus_dir), "--quiet"]
        ) == 0
        return spec_file, corpus_dir

    @pytest.mark.parametrize("argv", [
        ["compact", "{dir}"],
        ["run", "--resume", "--corpus", "{dir}"],
    ], ids=["compact", "resume"])
    def test_corrupt_interior_journal_record_is_a_usage_error(
        self, argv, campaign_corpus, tmp_path, capsys
    ):
        spec_file, source = campaign_corpus
        corpus_dir = tmp_path / "corpus"
        shutil.copytree(source, corpus_dir)
        journal = corpus_dir / "journal.jsonl"
        lines = journal.read_bytes().splitlines(keepends=True)
        assert len(lines) >= 3
        damaged = bytearray(lines[1])
        damaged[len(damaged) // 2] ^= 0x01
        lines[1] = bytes(damaged)
        journal.write_bytes(b"".join(lines))
        before = journal.read_bytes()
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            campaign_main([arg.format(dir=corpus_dir, spec=spec_file) for arg in argv])
        assert excinfo.value.code == 2
        assert "error: corrupt journal record before the final line" in capsys.readouterr().err
        assert journal.read_bytes() == before


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
            ["--cca", "reno", "--trace", str(trace_path), "--attack", "none"]
        ) == 0
        capsys.readouterr()


    @pytest.mark.parametrize("kind", ["LinkTrace", "TrafficTrace", "LossTrace"])
    def test_trace_file_runs_as_the_simulator_input_its_type_names(
        self, kind, tmp_path, capsys
    ):
        # One trace → simulator-input dispatch, the library's: a loss trace
        # is replayed as forced losses, not injected as cross traffic.
        from repro.analysis.metrics import compute_metrics
        from repro.analysis.reporting import format_table
        from repro.exec.workers import simulate_packet_trace
        from repro.netsim.simulation import SimulationConfig
        from repro.tcp.cca import CCA_FACTORIES
        from repro.traces.generator import LinkTraceGenerator
        from repro.traces.trace import LossTrace, TrafficTrace

        times = [0.2 + 0.1 * i for i in range(7)]
        trace = {
            "LinkTrace": lambda: LinkTraceGenerator(2.0, 12.0, seed=3).generate(),
            "TrafficTrace": lambda: TrafficTrace(timestamps=times, duration=2.0, max_packets=16),
            "LossTrace": lambda: LossTrace(timestamps=times, duration=2.0),
        }[kind]()
        trace_path = tmp_path / "trace.json"
        trace_path.write_text(trace.to_json())
        assert simulate_main(
            ["--cca", "reno", "--trace", str(trace_path)]
        ) == 0
        expected = compute_metrics(
            simulate_packet_trace(CCA_FACTORIES["reno"], SimulationConfig(duration=2.0), trace)
        )
        assert capsys.readouterr().out == format_table([expected.as_dict()]) + "\n"
        if kind == "LossTrace":
            assert expected.as_dict()["cross_traffic_packets"] == 0

    def test_attack_offers_every_builtin(self, capsys):
        from repro.attacks import builtin_attack_traces

        # 2 s is the shortest figure length at which every builtin has events.
        for name in ["none", *builtin_attack_traces(2.0)]:
            assert simulate_main(["--cca", "reno", "--duration", "2", "--attack", name]) == 0
        capsys.readouterr()


class TestTraceInputRule:
    """A trace file carries its own duration and a link trace its own rate:
    ``repro-simulate`` and ``repro-triage`` reject the flags that would
    contradict them instead of running something else."""

    def _link_trace(self, tmp_path, capsys):
        path = tmp_path / "link.json"
        assert trace_main(["generate", "--mode", "link", "--rate-mbps", "6", "--duration", "3",
                           "--output", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_a_link_trace_runs_for_its_own_length_at_its_own_rate(self, tmp_path, capsys):
        path = self._link_trace(tmp_path, capsys)
        assert simulate_main(["--cca", "cubic", "--trace", str(path)]) == 0
        header, _, values = capsys.readouterr().out.splitlines()[:3]
        cells = [[cell.strip() for cell in line.split("|")] for line in (header, values)]
        row = dict(zip(*cells))
        assert row["duration"] == "3.000"
        assert 0.0 < float(row["utilization"]) <= 1.0

    @pytest.mark.parametrize("argv, message", [
        (["--trace", "{path}", "--duration", "1"], "--duration only applies to --attack"),
        (["--trace", "{path}", "--rate-mbps", "6"], "--rate-mbps conflicts with a link trace"),
        (["--attack", "bbr-stall-link", "--rate-mbps", "5", "--duration", "1"],
         "--rate-mbps conflicts with a link trace"),
    ])
    def test_simulate_rejects_a_contradicting_flag(self, argv, message, tmp_path, capsys):
        path = self._link_trace(tmp_path, capsys)
        with pytest.raises(SystemExit) as excinfo:
            simulate_main(["--cca", "bbr", *[arg.format(path=path) for arg in argv]])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err and captured.out == ""

    def test_triage_runs_a_link_trace_at_its_own_rate(self, tmp_path, capsys, monkeypatch):
        import repro.triage

        path = self._link_trace(tmp_path, capsys)

        class Captured(Exception):
            pass

        def capture(trace, *, sim_config, **kwargs):
            raise Captured(sim_config)

        monkeypatch.setattr(repro.triage, "triage_trace", capture)
        with pytest.raises(Captured) as captured:
            triage_main(["--cca", "bbr", "--trace", str(path)])
        (sim,) = captured.value.args
        assert (sim.duration, sim.bottleneck_rate_mbps) == (3.0, 6.0)

    @pytest.mark.parametrize("main", [simulate_main, triage_main], ids=["simulate", "triage"])
    @pytest.mark.parametrize("attack, duration", [
        ("bbr-stall", "0.9"), ("lowrate", "0.3"), ("bbr-double-loss", "1"),
    ])
    def test_an_empty_attack_is_a_usage_error(self, main, attack, duration, capsys):
        # Below its first burst an attack has no events; running it would
        # report a clean simulation as the attack's effect.
        with pytest.raises(SystemExit) as excinfo:
            main(["--cca", "reno", "--attack", attack, "--duration", duration])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert f"error: --attack {attack} has no events in {duration} s" in captured.err
        assert captured.out == ""


class TestServeUsage:
    def test_missing_directory_is_refused_and_not_created(self, tmp_path, capsys):
        missing = tmp_path / "no-such-corpus"
        with pytest.raises(SystemExit) as excinfo:
            campaign_main(["serve", str(missing)])
        assert excinfo.value.code == 2
        assert f"no corpus directory at {missing}" in capsys.readouterr().err
        assert not missing.exists()


def test_verbose_is_a_usage_error_that_creates_nothing(tmp_path, capsys):
    from repro.cli import fuzz_main

    corpus, output = tmp_path / "corpus", tmp_path / "best.json"
    with pytest.raises(SystemExit) as excinfo:
        fuzz_main([
            "-v", "--cca", "reno", "--population", "2", "--generations", "1",
            "--duration", "0.2", "--output-dir", str(corpus), "--output", str(output),
        ])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: -v" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _leaf_parsers(main, monkeypatch):
    """Every parser ``main`` can dispatch to (the program's, or its subcommands')."""
    from repro import cli

    monkeypatch.setattr(cli, "_dispatch", lambda parser, argv: parser)
    parser = main([])
    subcommands = [
        action.choices for action in parser._actions if isinstance(action.choices, dict)
    ]
    return list(subcommands[0].values()) if subcommands else [parser]


class TestEveryParser:
    """One vocabulary: what every command's parser must share."""

    @pytest.mark.parametrize("name, commands", [
        ("fuzz_main", 1), ("simulate_main", 1), ("trace_main", 2), ("triage_main", 1),
        ("coverage_main", 3), ("campaign_main", 7),
    ])
    def test_help_console_flags_and_the_pool_options(self, name, commands, monkeypatch, capsys):
        from repro import cli
        from repro.exec.backend import BACKENDS

        parsers = _leaf_parsers(getattr(cli, name), monkeypatch)
        assert len(parsers) == commands
        for parser in parsers:
            assert parser.format_help().startswith("usage: repro-")
            options = {
                flag: action for action in parser._actions for flag in action.option_strings
            }
            assert options["-q"] is options["--quiet"]
            assert callable(parser.get_default("handler"))
            # There is no verbose level: -v is a usage error, not a no-op.
            assert "-v" not in options and "--verbose" not in options
            if "--backend" in options:
                assert tuple(options["--backend"].choices) == BACKENDS
            # A pool size is at least 1 — checked while parsing, one message.
            if "--workers" in options:
                with pytest.raises(SystemExit) as excinfo:
                    parser.parse_args(["--workers", "0"])
                assert excinfo.value.code == 2
                assert "--workers must be at least 1" in capsys.readouterr().err


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
