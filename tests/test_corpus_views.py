"""One writer and one reader per corpus view.

A corpus directory stores two views twice each: the behavior map as
``behavior_map.json`` and as the journal's ``behavior_delta`` records, and
the Prometheus snapshot as the latest ``metrics`` record of
``metrics.jsonl``.  The campaign is each view's one writer; every front end
reads the map through :func:`repro.coverage.archive.read_corpus_map` and
the snapshot through :meth:`repro.obs.status.StatusWatcher.prometheus`.
These tests build the corpora on which two readers used to disagree — a
killed campaign, a finished fleet, a killed campaign over a finished one —
and pin that the front ends agree on them.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys

import pytest

from repro.analysis.reporting import shape_coverage
from repro.cli import campaign_main, coverage_main
from repro.coverage.archive import BehaviorArchive
from repro.journal.log import read_corpus_journal_view
from repro.obs import collect_status, format_status
from repro.serve.query import DashboardQuery

CRASHSIM = os.path.join(os.path.dirname(__file__), "crashsim.py")

NOVELTY_SPEC = {
    "name": "views",
    "ccas": ["reno", "cubic"],
    "modes": ["traffic"],
    "objectives": ["throughput"],
    "conditions": [{"name": "base"}],
    "budget": {"population_size": 6, "generations": 3, "duration": 0.3},
    "guidance": "novelty",
    "seed": 7,
    "seed_limit": 2,
}


def _crashsim(corpus_dir, spec, *extra: str) -> int:
    spec_path = f"{corpus_dir}.spec.json"
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(CRASHSIM), "..", "src"))
    return subprocess.run(
        [sys.executable, CRASHSIM, "--corpus", str(corpus_dir), "--spec", spec_path, *extra],
        env=env, capture_output=True, timeout=300,
    ).returncode


def _killed(corpus_dir, spec, nth: int) -> None:
    code = _crashsim(corpus_dir, spec, "--point", "post-checkpoint", "--nth", str(nth))
    assert code == -signal.SIGKILL


def _stdout(main, argv, capsys) -> str:
    capsys.readouterr()
    assert main(argv) == 0
    return capsys.readouterr().out


def _api_coverage(corpus_dir) -> dict:
    query = DashboardQuery(str(corpus_dir))
    try:
        payload = query.coverage()
    finally:
        query.close()
    del payload["sources"]
    return payload


def test_a_killed_campaign_has_one_map(tmp_path, capsys):
    """``repro-coverage map`` and ``/api/coverage`` read a SIGKILLed novelty
    campaign's map the same way: the journal's cells, since no map file was
    finalised."""
    corpus_dir = tmp_path / "killed"
    _killed(corpus_dir, NOVELTY_SPEC, nth=4)
    assert not os.path.exists(BehaviorArchive.corpus_path(str(corpus_dir)))

    cells = json.loads(_stdout(coverage_main, ["map", str(corpus_dir), "--json"], capsys))["cells"]
    assert set(cells) == set(read_corpus_journal_view(str(corpus_dir)).behavior_cells)
    assert _api_coverage(corpus_dir) == shape_coverage(cells)


def test_a_finished_fleet_map_is_the_file(tmp_path):
    """On a finished ``workers -n 0`` corpus whose scenarios share cells,
    ``/api/coverage`` shows the merged map the campaign finalised — not the
    per-scenario payloads its workers journaled."""
    corpus_dir = tmp_path / "fleet"
    spec = dict(NOVELTY_SPEC, name="views-fleet", ccas=["reno"], modes=["traffic", "loss"])
    assert _crashsim(corpus_dir, spec, "--fleet", "0") == 0

    final = BehaviorArchive.load(BehaviorArchive.corpus_path(str(corpus_dir))).to_dict()["cells"]
    journaled = read_corpus_journal_view(str(corpus_dir)).behavior_cells
    shared = [cell for cell in final if journaled[cell]["visits"] != final[cell]["visits"]]
    assert shared, "no cell was visited by more than one scenario"
    assert _api_coverage(corpus_dir) == shape_coverage(final)


def test_prometheus_has_one_reader(tmp_path, capsys):
    """A second campaign SIGKILLed over a finished corpus: ``/metrics`` and
    ``status --prometheus`` render the same bytes, the killed run's latest
    snapshot."""
    corpus_dir = tmp_path / "second"
    first = dict(NOVELTY_SPEC, name="first", ccas=["reno"], guidance="score")
    spec_path = tmp_path / "first.json"
    spec_path.write_text(json.dumps(first))
    assert campaign_main(["run", "--spec", str(spec_path), "--corpus", str(corpus_dir)]) == 0
    finished = _stdout(campaign_main, ["status", str(corpus_dir), "--prometheus"], capsys)
    _killed(corpus_dir, dict(first, name="second", seed=9), nth=1)

    served = DashboardQuery(str(corpus_dir)).prometheus()
    assert served == _stdout(campaign_main, ["status", str(corpus_dir), "--prometheus"], capsys)
    assert "# TYPE repro_fuzzer_evaluations counter" in served
    assert served != finished
    assert not (corpus_dir / "metrics.prom").exists()


@pytest.fixture(scope="module")
def finished_corpus(tmp_path_factory):
    corpus_dir = tmp_path_factory.mktemp("manifest") / "corpus"
    spec_path = corpus_dir.parent / "spec.json"
    spec_path.write_text(json.dumps(dict(NOVELTY_SPEC, ccas=["reno"], guidance="score")))
    assert campaign_main(
        ["run", "--spec", str(spec_path), "--corpus", str(corpus_dir), "--quiet"]
    ) == 0
    return corpus_dir


def test_status_shows_a_finished_runs_manifest(finished_corpus):
    status = collect_status(finished_corpus)
    assert status["state"] == "complete" and status["manifest_present"]
    assert f"manifest: present, result digest {status['result_digest']}" in format_status(status)


@pytest.mark.parametrize("record_type, campaign", [
    ("campaign_start", "second"),              # another campaign
    ("campaign_resume", "views"),              # the same one, run again
])
def test_status_hides_an_earlier_runs_manifest(finished_corpus, tmp_path, record_type, campaign):
    """A run that started after the manifest was written is not the run the
    manifest describes: ``status`` shows it running, with no manifest."""
    corpus_dir = tmp_path / "corpus"
    os.makedirs(corpus_dir)
    for name in ("metrics.jsonl", "run_manifest.json"):
        (corpus_dir / name).write_bytes((finished_corpus / name).read_bytes())
    manifest = json.loads((corpus_dir / "run_manifest.json").read_text())
    assert manifest["campaign"] == "views"
    with open(corpus_dir / "metrics.jsonl", "a", encoding="utf-8") as handle:
        start = {"t": manifest["finished_at"] + 1.0, "type": record_type,
                 "campaign": campaign, "scenarios": []}
        handle.write(json.dumps(start) + "\n")

    status = collect_status(corpus_dir)
    assert status["campaign"] == campaign and status["state"] == "running"
    assert status["manifest_present"] is False and status["result_digest"] is None
    assert "manifest:" not in format_status(status)
