"""One writer and one reader per corpus view.

A corpus directory stores two views twice each: the behavior map as
``behavior_map.json`` and as the journal's ``behavior_delta`` records, and
the Prometheus snapshot as the latest ``metrics`` record of
``metrics.jsonl``.  The map is a fold of the journal: one function,
:func:`repro.campaign.corpus.read_corpus_map`, computes it for every front
end and campaign, and :meth:`~repro.campaign.corpus.CorpusStore.fold`
publishes it before ``folded.json``.  The snapshot has one reader,
:meth:`repro.obs.status.StatusWatcher.prometheus`.  These tests build the
corpora on which two readers used to disagree — a killed campaign, a
killed campaign over a finished one, a campaign or a triage over a killed
one, a kill inside the fold — and pin that they agree.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys

import pytest

from repro.analysis.reporting import shape_coverage
from repro.campaign import CampaignRunner, CampaignSpec, CorpusStore
from repro.cli import campaign_main, coverage_main
from repro.coverage.archive import BehaviorArchive
from repro.journal.log import read_corpus_journal_view
from repro.obs.status import collect_status, format_status
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
    assert set(cells) == set(read_corpus_journal_view(str(corpus_dir)).behavior_state()[0])
    assert _api_coverage(corpus_dir) == shape_coverage(cells)


def _map_reads(corpus_dir, capsys) -> dict:
    """``repro-coverage map --json``, checked to be what ``/api/coverage`` shows."""
    behavior = json.loads(_stdout(coverage_main, ["map", str(corpus_dir), "--json"], capsys))
    assert _api_coverage(corpus_dir) == shape_coverage(behavior["cells"])
    return behavior


def test_a_fresh_campaign_starts_from_a_killed_campaigns_map(tmp_path, capsys):
    """A killed campaign's journaled cells carry into the next, differently
    named campaign over its corpus, as its corpus entries do: they are its
    ``archive_baseline`` and stay in its final map."""
    corpus_dir = tmp_path / "killed"
    _killed(corpus_dir, NOVELTY_SPEC, nth=4)
    killed = _map_reads(corpus_dir, capsys)
    journaled = set(read_corpus_journal_view(str(corpus_dir)).behavior_state()[0])
    assert journaled and set(killed["cells"]) == journaled

    spec_path = tmp_path / "next.json"
    spec_path.write_text(json.dumps(dict(NOVELTY_SPEC, name="next", ccas=["reno"], seed=9)))
    assert campaign_main(["run", "--spec", str(spec_path), "--corpus", str(corpus_dir), "-q"]) == 0
    assert read_corpus_journal_view(str(corpus_dir)).campaign["archive_baseline"] == killed
    final = BehaviorArchive.load(BehaviorArchive.corpus_path(str(corpus_dir)))
    assert journaled <= set(final.cell_keys())


KILL_WITH_AN_EMPTY_MAP = """
import sys
sys.path.insert(0, sys.argv[1])
import crashsim
from repro.campaign import CampaignRunner, CampaignSpec, CorpusStore
from repro.coverage.archive import BehaviorArchive
crashsim.install_injection("post-checkpoint", int(sys.argv[4]))
with open(sys.argv[3], encoding="utf-8") as handle:
    spec = CampaignSpec.from_json(handle.read())
CampaignRunner(spec, CorpusStore(sys.argv[2]), archive=BehaviorArchive()).run()
"""


class _Resumed(Exception):
    """Stops a resumed campaign at its first scenario."""


def test_a_killed_campaign_with_its_own_map_reads_as_it_resumes(tmp_path, capsys, monkeypatch):
    """A ``CampaignRunner(archive=BehaviorArchive())`` killed over a mapped
    corpus: ``repro-coverage`` and ``/api/coverage`` show the map the
    resumed campaign continues from, not the previous campaign's file."""
    corpus_dir = tmp_path / "mapped"
    assert _crashsim(corpus_dir, dict(NOVELTY_SPEC, name="first", ccas=["reno"])) == 0
    stale = BehaviorArchive.load(BehaviorArchive.corpus_path(str(corpus_dir))).to_dict()
    spec_path = tmp_path / "second.json"
    spec_path.write_text(json.dumps(dict(NOVELTY_SPEC, name="second", seed=9)))
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(CRASHSIM), "..", "src"))
    killed = subprocess.run(
        [sys.executable, "-c", KILL_WITH_AN_EMPTY_MAP, os.path.dirname(CRASHSIM),
         str(corpus_dir), str(spec_path), "4"],
        env=env, capture_output=True, timeout=300,
    )
    assert killed.returncode == -signal.SIGKILL, killed.stderr
    reads = _map_reads(corpus_dir, capsys)

    resumed = {}

    def first_scenario(runner, scenario, backend, seeds, resume_state):
        resumed.update(runner.archive.to_dict())
        raise _Resumed

    monkeypatch.setattr(CampaignRunner, "_run_scenario", first_scenario)
    with pytest.raises(_Resumed):
        CampaignRunner.resume(str(corpus_dir), telemetry=False).run()
    assert reads == json.loads(json.dumps(resumed))
    assert reads != stale


#: Two unseeded novelty scenarios: a triage that adds to the corpus cannot
#: change what a resumed campaign searches.
FOLD_SPEC = dict(NOVELTY_SPEC, name="fold-map", seed_limit=0)


@pytest.fixture(scope="module")
def fold_control(tmp_path_factory):
    """An uninterrupted run of ``FOLD_SPEC``: its directory and the corpus
    files it published, in order."""
    corpus_dir = str(tmp_path_factory.mktemp("fold-control") / "corpus")
    published, real_replace = [], os.replace

    def replace(src, dst, *args, **kwargs):
        if os.fspath(dst).endswith(".json"):           # what crashsim's pre-rename counts
            published.append(os.path.relpath(os.fspath(dst), corpus_dir))
        return real_replace(src, dst, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "replace", replace)
        CampaignRunner(CampaignSpec.from_dict(FOLD_SPEC), CorpusStore(corpus_dir)).run()
    return corpus_dir, published


def _resumes_to(corpus_dir, control_dir) -> None:
    """Resumed, ``corpus_dir``'s map file is byte for byte the control's."""
    CampaignRunner.resume(str(corpus_dir), telemetry=False).run()
    with open(BehaviorArchive.corpus_path(str(corpus_dir)), "rb") as mine, \
            open(BehaviorArchive.corpus_path(control_dir), "rb") as theirs:
        assert mine.read() == theirs.read()


def test_triage_after_a_killed_campaign_publishes_the_journals_map(
    tmp_path, fold_control, capsys
):
    """``repro-campaign triage`` folds a killed campaign's corpus and marks
    it: the map file it leaves holds the journal's map, which the readers
    show as before, and the campaign still resumes to the control's map."""
    control_dir, _ = fold_control
    corpus_dir = tmp_path / "killed"
    _killed(corpus_dir, FOLD_SPEC, nth=2)
    unfolded = _map_reads(corpus_dir, capsys)
    assert campaign_main(["triage", "--corpus", str(corpus_dir), "--limit", "1",
                          "--skip-robustness", "--skip-differential", "-q"]) == 0
    assert (corpus_dir / "folded.json").exists()
    assert _map_reads(corpus_dir, capsys) == unfolded
    assert BehaviorArchive.load(BehaviorArchive.corpus_path(str(corpus_dir))).to_dict() == unfolded
    _resumes_to(corpus_dir, control_dir)


def test_a_kill_between_the_maps_publish_and_the_fold_mark(tmp_path, fold_control, capsys):
    """The fold publishes the map just before ``folded.json``; killed between
    the two, the corpus reads as its journal and resumes to the control."""
    control_dir, published = fold_control
    nth = published.index("folded.json") + 1
    assert published[nth - 2] == "behavior_map.json"
    corpus_dir = tmp_path / "killed"
    code = _crashsim(corpus_dir, FOLD_SPEC, "--point", "pre-rename", "--nth", str(nth))
    assert code == -signal.SIGKILL
    assert (corpus_dir / "behavior_map.json").exists() and not (corpus_dir / "folded.json").exists()
    control = BehaviorArchive.load(BehaviorArchive.corpus_path(control_dir)).to_dict()
    assert _map_reads(corpus_dir, capsys) == json.loads(json.dumps(control))
    _resumes_to(corpus_dir, control_dir)


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
