"""End-to-end tests for the parallel-evaluation CLI flags of ``repro-fuzz``."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import fuzz_main


def run_fuzz(extra_args, tmp_path, top=2):
    output = tmp_path / "best.json"
    argv = [
        "--cca", "reno",
        "--mode", "traffic",
        "--population", "4",
        "--generations", "2",
        "--duration", "1.0",
        "--seed", "5",
        "--top", str(top),
        "--output", str(output),
    ] + extra_args
    exit_code = fuzz_main(argv)
    return exit_code, output


def best_fitness_from_output(captured: str) -> float:
    """The best fitness on the scenario's completion line ("[sid] best=…")."""
    rows = re.findall(r"^\[\S+\] best=(-?\d+\.\d+) evals=", captured, re.MULTILINE)
    assert len(rows) == 1, captured
    return float(rows[0])


class TestBackendFlags:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_each_backend_runs_end_to_end(self, backend, tmp_path, capsys):
        exit_code, output = run_fuzz(["--backend", backend, "--workers", "2"], tmp_path)
        assert exit_code == 0
        payload = json.loads(output.read_text())
        assert payload["type"] == "TrafficTrace"
        out = capsys.readouterr().out
        assert "shared cache:" in out

    def test_backends_agree_on_best_fitness(self, tmp_path, capsys):
        run_fuzz(["--backend", "serial"], tmp_path)
        serial_out = capsys.readouterr().out
        run_fuzz(["--backend", "process", "--workers", "2"], tmp_path)
        process_out = capsys.readouterr().out
        assert best_fitness_from_output(serial_out) == best_fitness_from_output(process_out)

    def test_cubic_ns3bug_factory_survives_process_backend(self, tmp_path, capsys):
        # The CLI's keyword-argument CCA variants are partials, not lambdas,
        # exactly so they can cross the multiprocessing pickle boundary.
        output = tmp_path / "best.json"
        exit_code = fuzz_main(
            [
                "--cca", "cubic-ns3bug",
                "--mode", "traffic",
                "--population", "4",
                "--generations", "2",
                "--duration", "1.0",
                "--backend", "process",
                "--workers", "2",
                "--output", str(output),
            ]
        )
        assert exit_code == 0
        assert output.exists()
        capsys.readouterr()


class TestWorkersErrorPath:
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_nonpositive_workers_rejected(self, workers, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_fuzz(["--backend", "process", "--workers", workers], tmp_path)
        assert excinfo.value.code == 2
        assert "--workers must be at least 1" in capsys.readouterr().err
