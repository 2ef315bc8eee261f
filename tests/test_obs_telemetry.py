"""End-to-end tests for campaign telemetry: sinks, status, manifests, console.

The headline guarantee is bit-identity: telemetry only *observes* the
search (instrumented call sites write counters nothing reads back), so a
campaign run with telemetry on must produce exactly the same deterministic
digest as one run with telemetry off.
"""

from __future__ import annotations

import copy
import io
import json
import math
import os
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.attacks import builtin_attack_traces
from repro.campaign import CampaignRunner, CampaignSpec, CorpusReader, CorpusStore
from repro.cli import campaign_main
from repro.exec.quarantine import QUARANTINE_FILENAME
from repro.journal.log import CampaignJournal
from repro.netsim.simulation import SimulationConfig, simulate_packet_trace
from repro.obs.console import Console
from repro.obs.manifest import MANIFEST_FILENAME, read_manifest, spec_fingerprint
from repro.obs.metrics import MetricsRegistry, get_registry, reset_registry, set_enabled
from repro.obs.sinks import METRICS_FILENAME, MetricsJsonlSink, prometheus_text, read_metrics
from repro.obs.spans import SPAN_FIELDS, PhaseTracer
from repro.obs.status import StatusWatcher, collect_status, fold_status, format_status, status_json
from repro.obs.telemetry import CampaignTelemetry
from repro.tcp.cca.bbr import Bbr

#: One well-formed entry between two the store's parser drops.
HALF_GARBAGE_QUARANTINE = {
    "entries": [1, {"fingerprint": "x", "cca": "reno", "kind": "crash"}, {"nope": 1}]
}


def tiny_spec(**overrides) -> CampaignSpec:
    payload = {
        "name": "obs-test",
        "ccas": ["reno"],
        "modes": ["traffic"],
        "objectives": ["throughput"],
        "conditions": [{"name": "base"}],
        "budget": {"population_size": 4, "generations": 2, "duration": 1.0},
        "seed": 7,
        "seed_limit": 2,
    }
    payload.update(overrides)
    return CampaignSpec.from_dict(payload)


def run_campaign(corpus_dir, telemetry=True, **spec_overrides):
    runner = CampaignRunner(
        tiny_spec(**spec_overrides),
        CorpusStore(str(corpus_dir)),
        register_attacks=False,
        telemetry=telemetry,
    )
    return runner.run()


class TestBitIdentity:
    def test_telemetry_on_equals_telemetry_off(self, tmp_path):
        """The acceptance criterion: identical digests with telemetry on/off."""
        result_on = run_campaign(tmp_path / "on", telemetry=True)
        result_off = run_campaign(tmp_path / "off", telemetry=False)
        assert result_on.deterministic_digest() == result_off.deterministic_digest()
        assert (tmp_path / "on" / METRICS_FILENAME).exists()
        assert not (tmp_path / "off" / METRICS_FILENAME).exists()
        assert not (tmp_path / "off" / MANIFEST_FILENAME).exists()

    def test_globally_disabled_instrumentation_changes_nothing(self, tmp_path):
        previous = set_enabled(False)
        try:
            result_dark = run_campaign(tmp_path / "dark", telemetry=False)
        finally:
            set_enabled(previous)
        result_lit = run_campaign(tmp_path / "lit", telemetry=True)
        assert result_dark.deterministic_digest() == result_lit.deterministic_digest()


def test_ack_mix_counters_on_builtin_bbr_stall():
    """``sim.acks*`` sit beside ``sim.events`` at whole-simulation granularity:
    how many ACKs the sender processed, how many carried SACK blocks, how many
    arrived in (fast or RTO) recovery.  Pinned on the builtin BBR stall —
    two thirds of its ACKs are on the recovery path, not the in-order one —
    and absent from ``summary()`` so no journal or golden moves."""
    registry = get_registry()
    names = ("sim.acks", "sim.acks_sack", "sim.acks_recovery")
    before = [registry.counter(name) for name in names]
    result = simulate_packet_trace(
        Bbr, SimulationConfig(duration=5.0), builtin_attack_traces(5.0)["bbr-stall"]
    )
    assert [registry.counter(name) - b for name, b in zip(names, before)] == [1632, 1063, 1059]
    stats = result.sender_stats
    assert (stats.acks, stats.sack_acks, stats.recovery_acks) == (1632, 1063, 1059)
    assert not {"acks", "sack_acks", "recovery_acks"} & set(result.summary())


def test_cli_campaign_leaves_well_formed_telemetry(tmp_path, capsys):
    """The CI telemetry smoke's asserts, runnable locally: a campaign run
    through the CLI brackets its stream with start/complete records, carries
    snapshots, and pins the run in its manifest — all read back through the
    same ``read_metrics`` / ``read_manifest`` every observer uses."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(dict(tiny_spec().to_dict(), name="ci-telemetry-smoke")))
    corpus_dir = tmp_path / "corpus"
    assert campaign_main(
        ["run", "--spec", str(spec_path), "--corpus", str(corpus_dir), "--progress"]
    ) == 0
    capsys.readouterr()

    types = [record["type"] for record in read_metrics(corpus_dir / METRICS_FILENAME)]
    assert types[0] == "campaign_start" and types[-1] == "campaign_complete"
    assert "generation" in types and "metrics" in types
    manifest = read_manifest(corpus_dir)
    assert manifest["spec"]["name"] == "ci-telemetry-smoke"
    assert manifest["spec_fingerprint"]
    assert manifest["result"]["deterministic_digest"]
    assert manifest["result"]["total_evaluations"] > 0
    assert "# TYPE repro_fuzzer_evaluations counter" in StatusWatcher(corpus_dir).prometheus()


#: Runs a campaign (``argv[1]`` spec, ``argv[2]`` corpus) with every way of
#: starting a child process made to raise.
NO_CHILD_PROCESS = (
    "import os, subprocess, sys\n"
    "def refuse(*args, **kwargs):\n"
    "    raise AssertionError('the campaign started a child process')\n"
    "subprocess.Popen.__init__ = refuse\n"
    "for name in ('fork', 'posix_spawn', 'posix_spawnp', 'system', 'execv', 'execve'):\n"
    "    setattr(os, name, refuse)\n"
    "from repro.cli import campaign_main\n"
    "sys.exit(campaign_main(['run', '--spec', sys.argv[1], '--corpus', sys.argv[2], '-q']))\n"
)


def test_a_serial_campaign_writes_its_manifest_without_a_child_process(tmp_path):
    """``platform.platform()`` runs ``uname -p`` in a child process; the
    manifest's host facts come from ``os.uname()`` instead.  Run in a fresh
    interpreter, where nothing has cached the platform probe yet."""
    import subprocess
    import sys

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(tiny_spec(budget={
        "population_size": 2, "generations": 1, "duration": 0.5,
    }).to_dict()))
    corpus_dir = tmp_path / "corpus"
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", NO_CHILD_PROCESS, str(spec_path), str(corpus_dir)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    host = read_manifest(corpus_dir)["host"]
    uname = os.uname()
    assert host["platform"] == f"{uname.sysname}-{uname.release}-{uname.machine}"


class TestTelemetryStream:
    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        corpus_dir = tmp_path_factory.mktemp("obs-corpus")
        result = run_campaign(corpus_dir)
        return corpus_dir, result

    def test_stream_is_well_formed(self, campaign):
        corpus_dir, _ = campaign
        records = read_metrics(corpus_dir / METRICS_FILENAME)
        assert records, "campaign wrote no telemetry records"
        assert records[0]["type"] == "campaign_start"
        assert records[-1]["type"] == "campaign_complete"
        types = {record["type"] for record in records}
        assert {"scenario_state", "generation", "metrics"} <= types
        for record in records:
            assert isinstance(record.get("t"), (int, float))
        spans = [record for record in records if record["type"] == "span"]
        assert [span["phase"] for span in spans] == ["scenario"]
        for span in spans:
            assert set(span) - {"t", "type"} == set(SPAN_FIELDS)

    def test_generation_records_carry_search_progress(self, campaign):
        corpus_dir, result = campaign
        generations = [
            r for r in read_metrics(corpus_dir / METRICS_FILENAME)
            if r["type"] == "generation"
        ]
        total_evaluations = sum(o.evaluations for o in result.outcomes)
        assert sum(r["evaluations"] for r in generations) == total_evaluations
        assert all("best_fitness" in r and "cells" in r for r in generations)

    def test_manifest_matches_the_run(self, campaign):
        corpus_dir, result = campaign
        manifest = read_manifest(corpus_dir)
        assert manifest is not None
        assert manifest["spec"]["name"] == "obs-test"
        assert manifest["spec_fingerprint"] == spec_fingerprint(
            manifest["spec"]
        )
        assert manifest["result"]["deterministic_digest"] == result.deterministic_digest()
        assert manifest["result"]["total_evaluations"] == sum(
            o.evaluations for o in result.outcomes
        )
        assert len(manifest["scenarios"]) == 1
        assert manifest["host"]["pid"] == os.getpid()
        # The phase table and the final snapshot are the stream's, not copied.
        assert manifest["schema"] == 2
        assert "metrics" not in manifest and "phases" not in manifest
        records = read_metrics(corpus_dir / METRICS_FILENAME)
        assert records[-1]["type"] == "campaign_complete" and records[-1]["phases"]
        assert any(record["type"] == "metrics" for record in records)

    def test_status_view(self, campaign):
        corpus_dir, result = campaign
        status = collect_status(corpus_dir)
        assert status["campaign"] == "obs-test"
        assert status["state"] == "complete"
        assert status["scenarios_total"] == status["scenarios_completed"] == 1
        assert status["evaluations"] == sum(o.evaluations for o in result.outcomes)
        assert status["progress_fraction"] == 1.0
        assert status["eta_s"] == 0.0
        assert status["behavior_cells"] > 0
        entry = status["scenarios"]["reno/traffic/throughput/base"]
        assert entry["state"] == "complete"
        assert entry["generation"] == entry["generations_total"] == 2

        # Where the journal's bytes went, from the telemetry stream alone
        # (registry counters are cumulative over the test process: >=).
        on_disk = {}
        for record in CampaignJournal(CampaignJournal.corpus_path(str(corpus_dir))).records():
            on_disk[record.type] = on_disk.get(record.type, 0) + len(record.to_line())
        assert set(status["journal_bytes"]) >= set(on_disk)
        assert all(status["journal_bytes"][name] >= size for name, size in on_disk.items())

        rendered = format_status(status)
        assert "campaign 'obs-test' — COMPLETE" in rendered
        assert "reno/traffic/throughput/base" in rendered
        assert "journal: " in rendered and "generation_checkpoint " in rendered
        json.loads(status_json(status))  # round-trips through JSON

    def test_status_tolerates_a_torn_tail(self, campaign):
        corpus_dir, result = campaign
        path = corpus_dir / METRICS_FILENAME
        quarantine = corpus_dir / QUARANTINE_FILENAME
        original = path.read_bytes()
        try:
            path.write_bytes(original + b'not json\n{"type": "metrics", "tr')
            quarantine.write_text(json.dumps(HALF_GARBAGE_QUARANTINE), encoding="utf-8")
            status = collect_status(corpus_dir)
            assert status["state"] == "complete"
            assert status["evaluations"] == sum(o.evaluations for o in result.outcomes)
            # Counted by the reader's own parser, so the two cannot disagree.
            assert status["quarantine_entries"] == len(CorpusReader(str(corpus_dir)).quarantine) == 1
        finally:
            path.write_bytes(original)
            quarantine.unlink()

    def test_status_on_empty_directory(self, tmp_path):
        status = collect_status(tmp_path)
        assert status["campaign"] is None
        assert "no campaign telemetry" in format_status(status)


#: A well-formed stream of one two-scenario campaign.
WELL_FORMED_STREAM = [
    {"type": "campaign_start", "t": 1.0, "campaign": "c", "scenarios": ["a", "b"],
     "generations_per_scenario": {"a": 2, "b": 3}, "completed": ["b"]},
    {"type": "generation", "t": 2.0, "scenario": "a", "generation": 0, "evaluations": 3,
     "cache_hits": 1, "cells": 2, "best_fitness": 0.5},
    {"type": "metrics", "t": 2.5, "registry": {"counters": {
        "fuzzer.evaluations": 3, "sim.events": 90, "journal.bytes": 400,
        "journal.bytes.generation_checkpoint": 300, "journal.bytes_scanned": 40}}},
    {"type": "scenario_state", "t": 3.0, "scenario": "a", "state": "complete",
     "outcome": {"generations": 2, "evaluations": 6, "cache_hits": 2, "cells": 3}},
    {"type": "metrics", "t": 4.0, "registry": {"counters": {
        "fuzzer.evaluations": 6, "sim.events": 180, "journal.bytes": 800,
        "journal.bytes.generation_checkpoint": 600, "journal.bytes_scanned": 80,
        "exec.failures": 1}}},
    {"type": "campaign_complete", "t": 5.0, "campaign": "c"},
]

#: Every field ``fold_status`` reads as a number, a list or an object:
#: (record index, path to the field, the kind a writer puts there).
TYPED_FIELDS = [
    (0, ("t",), "number"), (0, ("scenarios",), list), (0, ("completed",), list),
    (0, ("generations_per_scenario",), dict), (0, ("generations_per_scenario", "a"), "number"),
    (1, ("t",), "number"), (1, ("generation",), "number"), (1, ("evaluations",), "number"),
    (1, ("cache_hits",), "number"), (1, ("cells",), "number"),
    (2, ("t",), "number"), (2, ("registry",), dict), (2, ("registry", "counters"), dict),
    (2, ("registry", "counters", "fuzzer.evaluations"), "number"),
    (3, ("outcome",), dict), (3, ("outcome", "generations"), "number"),
    (3, ("outcome", "evaluations"), "number"), (3, ("outcome", "cells"), "number"),
    (4, ("registry", "counters"), dict), (4, ("registry", "counters", "sim.events"), "number"),
    (4, ("registry", "counters", "journal.bytes.generation_checkpoint"), "number"),
    (4, ("registry", "counters", "journal.bytes"), "number"),
    (4, ("registry", "counters", "exec.failures"), "number"),
    (5, ("t",), "number"),
]

JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), st.floats(allow_nan=True),
    st.text(max_size=3), st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)


def _is_kind(value, kind) -> bool:
    if kind == "number":
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    return isinstance(value, kind)


def _timeless(status):
    """``status`` without the fields a running campaign takes from the clock."""
    return {key: value for key, value in status.items()
            if key not in ("elapsed_s", "evals_per_sec", "eta_s")}


class TestFoldStatusTolerance:
    """``fold_status`` never raises on what it finds: a field with the wrong
    JSON type folds exactly as if it were absent, the way a torn line does."""

    NO_CORPUS = Path(__file__).parent / "no-such-corpus"

    def test_well_formed_stream_folds_as_before(self):
        status = fold_status(copy.deepcopy(WELL_FORMED_STREAM), self.NO_CORPUS)
        assert status["state"] == "complete" and status["campaign"] == "c"
        assert (status["scenarios_completed"], status["scenarios_total"]) == (2, 2)
        assert (status["evaluations"], status["cache_hits"], status["behavior_cells"]) == (6, 2, 3)
        assert status["elapsed_s"] == 4.0 and status["evals_per_sec"] == 1.5
        assert status["evals_per_sec_recent"] == 2.0 and status["sim_events"] == 180
        assert status["journal_bytes"] == {"generation_checkpoint": 600}
        assert status["journal_read_amplification"] == 0.1
        assert status["faults"]["failures"] == 1

    @settings(max_examples=150, deadline=None)
    @given(
        end=st.integers(1, len(WELL_FORMED_STREAM)),
        picks=st.lists(
            st.tuples(st.integers(0, len(TYPED_FIELDS) - 1), JSON_VALUES), min_size=1, max_size=4
        ),
    )
    def test_a_wrong_typed_field_folds_as_if_absent(self, end, picks):
        wrong, absent = copy.deepcopy(WELL_FORMED_STREAM), copy.deepcopy(WELL_FORMED_STREAM)
        for index, value in picks:
            record, path, kind = TYPED_FIELDS[index]
            assume(not _is_kind(value, kind))
            for stream, change in ((wrong, "set"), (absent, "delete")):
                parent = stream[record]
                for key in path[:-1]:
                    parent = parent.get(key) if isinstance(parent, dict) else None
                if isinstance(parent, dict):
                    if change == "set":
                        parent[path[-1]] = value
                    else:
                        parent.pop(path[-1], None)
        status = fold_status(wrong[:end], self.NO_CORPUS)
        assert _timeless(status) == _timeless(fold_status(absent[:end], self.NO_CORPUS))
        format_status(status)
        json.loads(status_json(status))

    def test_status_cli_survives_a_wrong_typed_generation(self, tmp_path, capsys):
        # Once such a record was in the stream, every status render raised.
        records = [WELL_FORMED_STREAM[0], {"type": "generation", "t": 3.0, "scenario": "a",
                                           "generation": "one", "evaluations": 3}]
        (tmp_path / METRICS_FILENAME).write_text(
            "".join(json.dumps(record) + "\n" for record in records)
        )
        assert campaign_main(["status", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "campaign 'c' — RUNNING" in out and "evals: 3 simulated" in out


class TestProgressStream:
    def test_progress_lines_go_to_the_stream(self, tmp_path):
        stream = io.StringIO()
        telemetry = CampaignTelemetry(str(tmp_path / "c"), progress_stream=stream)
        run_campaign(tmp_path / "c", telemetry=telemetry)
        lines = [line for line in stream.getvalue().splitlines() if line.strip()]
        assert lines, "no progress lines emitted"
        assert any("scenario 1/1" in line and "gen" in line for line in lines)

    def test_disabled_telemetry_writes_no_files(self, tmp_path):
        telemetry = CampaignTelemetry(str(tmp_path), enabled=False)
        telemetry.campaign_started(tiny_spec())
        telemetry.campaign_completed(tiny_spec())
        telemetry.close()
        assert not (tmp_path / METRICS_FILENAME).exists()
        assert not (tmp_path / MANIFEST_FILENAME).exists()


class TestSinks:
    def test_sink_throttles_snapshots_but_force_wins(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("x")
        sink = MetricsJsonlSink(str(tmp_path), interval_s=3600)
        sink.maybe_snapshot(registry)          # first one passes
        sink.maybe_snapshot(registry)          # throttled
        sink.maybe_snapshot(registry, force=True)
        sink.close()
        records = read_metrics(tmp_path / METRICS_FILENAME)
        assert [r["type"] for r in records] == ["metrics", "metrics"]
        assert records[-1]["registry"]["counters"]["x"] == 1

    def test_first_snapshot_passes_whatever_the_clock_reads(self, tmp_path):
        # A freshly booted host: time.monotonic() is still below interval_s.
        registry = MetricsRegistry()
        sink = MetricsJsonlSink(str(tmp_path), interval_s=3600)
        now = [2.5]
        sink.clock = lambda: now[0]
        assert sink.maybe_snapshot(registry)             # first one is never throttled
        now[0] += 3599.0
        assert not sink.maybe_snapshot(registry)         # inside the interval
        now[0] += 1.0
        assert sink.maybe_snapshot(registry)             # interval elapsed
        sink.close()
        assert len(read_metrics(tmp_path / METRICS_FILENAME)) == 2

    def test_emit_after_close_is_a_noop(self, tmp_path):
        sink = MetricsJsonlSink(str(tmp_path))
        sink.emit("metrics", {})
        sink.close()
        sink.emit("metrics", {})  # must not raise or resurrect the handle
        assert len(read_metrics(tmp_path / METRICS_FILENAME)) == 1

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.inc("sim.events", 5)
        registry.gauge_set("exec.workers", 2)
        registry.observe("journal.append_s", 0.5)
        registry.observe("journal.append_s", 3.0)
        snapshot = registry.snapshot()
        text = prometheus_text(snapshot)
        assert "# TYPE repro_sim_events counter" in text
        assert "repro_sim_events 5" in text
        assert "repro_exec_workers 2" in text
        assert 'repro_journal_append_s_bucket{le="+Inf"} 2' in text
        assert "repro_journal_append_s_count 2" in text
        # Cumulative bucket counts never decrease as `le` grows.
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_journal_append_s_bucket")
        ]
        assert counts == sorted(counts)


class TestPhaseTracer:
    def test_sibling_spans_partition_attribution(self):
        registry = reset_registry()
        closed = []
        tracer = PhaseTracer(on_close=closed.append)
        with tracer.span("scenario", "a"):
            registry.inc("fuzzer.evaluations", 3)
        with pytest.raises(RuntimeError):
            # A span whose body raises still closes and still reports.
            with tracer.span("scenario", "b"):
                registry.inc("fuzzer.evaluations", 2)
                raise RuntimeError("scenario failed")
        assert [(r["name"], r["counters"]["fuzzer.evaluations"]) for r in closed] == [
            ("a", 3), ("b", 2),
        ]
        assert all(set(record) == set(SPAN_FIELDS) for record in closed)
        summary = tracer.summary()
        assert summary["scenario"]["count"] == 2
        assert summary["scenario"]["wall_s"] == pytest.approx(
            sum(record["wall_s"] for record in closed)
        )
        assert summary["scenario"]["max_wall_s"] == max(record["wall_s"] for record in closed)


class TestConsole:
    def test_levels(self):
        out, err = io.StringIO(), io.StringIO()
        console = Console(out=out, err=err)
        console.result("r")
        console.info("i")
        console.error("e")
        assert out.getvalue() == "r\ni\n"
        assert err.getvalue() == "e\n"

    def test_quiet_keeps_results_and_errors_only(self):
        out, err = io.StringIO(), io.StringIO()
        console = Console(quiet=True, out=out, err=err)
        console.result("r")
        console.info("i")
        console.error("e")
        assert out.getvalue() == "r\n"
        assert err.getvalue() == "e\n"
