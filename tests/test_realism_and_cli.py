"""Tests for realism scoring (section 5) and the command-line interface."""

from __future__ import annotations

import functools
import json

import pytest

from repro.cli import fuzz_main, simulate_main, trace_main
from repro.netsim import SimulationConfig
from repro.scoring import RealismScorer, default_reference_panel
from repro.tcp import Reno
from repro.traces import LinkTrace, PacketTrace, TrafficTrace


class TestRealismScorer:
    @pytest.fixture(scope="class")
    def scorer(self):
        # A single-CCA panel keeps these tests fast; the full panel is
        # exercised by the Fig. 5 benchmark.
        return RealismScorer(
            panel={"reno": Reno},
            config=SimulationConfig(duration=1.5),
            top_fraction=1.0,
            threshold=0.6,
        )

    def test_steady_link_trace_is_realistic(self, scorer):
        trace = LinkTrace(timestamps=[i * 0.001 for i in range(1500)], duration=1.5)
        report = scorer.score(trace)
        assert report.is_realistic
        assert report.per_cca_utilization["reno"] > 0.6

    def test_starved_early_trace_is_unrealistic(self, scorer):
        # All service at the very end of the run: every CCA looks terrible.
        trace = LinkTrace(timestamps=[1.4 + i * 0.0005 for i in range(200)], duration=1.5)
        report = scorer.score(trace)
        assert not report.is_realistic

    def test_light_cross_traffic_is_realistic(self, scorer):
        trace = TrafficTrace(timestamps=[0.5, 0.7, 0.9], duration=1.5, max_packets=10)
        assert scorer.score(trace).is_realistic

    def test_partition_splits_by_threshold(self, scorer):
        good = LinkTrace(timestamps=[i * 0.001 for i in range(1500)], duration=1.5)
        bad = LinkTrace(timestamps=[1.4 + i * 0.0005 for i in range(200)], duration=1.5)
        partition = scorer.partition([good, bad])
        assert len(partition["valid"]) == 1
        assert len(partition["invalid"]) == 1

    def test_default_panel_contains_paper_ccas(self):
        assert set(default_reference_panel()) == {"reno", "cubic", "bbr"}

    def test_empty_panel_rejected(self):
        with pytest.raises(ValueError):
            RealismScorer(panel={})

    def test_default_panel_used_when_unspecified(self):
        scorer = RealismScorer(config=SimulationConfig(duration=1.0))
        assert set(scorer.panel) == {"reno", "cubic", "bbr"}


class TestCli:
    def test_simulate_prints_metrics(self, capsys):
        exit_code = simulate_main(["--cca", "reno", "--duration", "1.0"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "throughput_mbps" in output

    def test_simulate_reports_a_truncated_run_as_an_error(self, capsys, monkeypatch):
        # The real cap is 2,000,000 events (`--duration 40 --rate-mbps 400`
        # reaches it); lower the default so the test does not take 15 s.
        monkeypatch.setattr(
            "repro.cli.SimulationConfig", functools.partial(SimulationConfig, max_events=500)
        )
        with pytest.raises(SystemExit) as caught:
            simulate_main(["--cca", "reno", "--duration", "1.0"])
        assert caught.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and "max_events=500" in line

    def test_simulate_with_builtin_attack(self, capsys):
        exit_code = simulate_main(["--cca", "reno", "--duration", "2.0", "--attack", "lowrate"])
        assert exit_code == 0
        assert "throughput_mbps" in capsys.readouterr().out

    def test_trace_generate_and_inspect_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert trace_main(["generate", "--mode", "link", "--duration", "1.0", "--output", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["type"] == "LinkTrace"
        assert trace_main(["inspect", str(path)]) == 0
        assert "average rate" in capsys.readouterr().out

    def test_trace_generate_traffic_mode(self, tmp_path):
        path = tmp_path / "traffic.json"
        trace_main(
            ["generate", "--mode", "traffic", "--duration", "1.0", "--max-packets", "50",
             "--output", str(path)]
        )
        trace = PacketTrace.from_json(path.read_text())
        assert isinstance(trace, TrafficTrace)
        assert trace.packet_count <= 50

    def test_simulate_with_trace_file(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        trace_main(["generate", "--mode", "link", "--duration", "1.0", "--output", str(path)])
        assert simulate_main(["--cca", "cubic", "--duration", "1.0", "--trace", str(path)]) == 0

    def test_fuzz_small_run(self, tmp_path, capsys):
        output = tmp_path / "best.json"
        exit_code = fuzz_main(
            [
                "--cca", "reno", "--mode", "traffic", "--population", "4",
                "--generations", "2", "--duration", "1.5", "--output", str(output),
            ]
        )
        assert exit_code == 0
        assert output.exists()
        trace = PacketTrace.from_json(output.read_text())
        assert isinstance(trace, TrafficTrace)
        assert "generation" in capsys.readouterr().out
