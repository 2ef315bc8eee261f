"""Crash-recovery tests: SIGKILL a campaign, resume it, demand bit-identity.

The harness in :mod:`crashsim` runs a seeded campaign in a subprocess with a
SIGKILL planted at a deterministic injection point.  Each test then resumes
the wreckage (in-process via :meth:`CampaignRunner.resume`, or through
``repro-campaign run --resume``) and asserts the final corpus fingerprints,
behavior map and campaign summary digest are bit-identical to an
uninterrupted serial run of the same spec and seed.

The golden resume-equivalence test (kill after generation 1 of the first
scenario) and its twin on the process pool run in tier-1; the full
injection matrix is ``slow``.
"""

from __future__ import annotations

import filecmp
import glob
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.attacks import builtin_attack_traces
from repro.campaign import CampaignRunner, CampaignSpec, CorpusStore
from repro.cli import campaign_main
from repro.coverage.archive import BehaviorArchive
from repro.journal import CampaignJournal
from repro.obs.manifest import read_manifest

CRASHSIM = os.path.join(os.path.dirname(__file__), "crashsim.py")

SPEC_PAYLOAD = {
    "name": "crash-recovery",
    "ccas": ["reno", "cubic"],
    "modes": ["traffic"],
    "objectives": ["throughput"],
    "conditions": [{"name": "base"}],
    "budget": {"population_size": 4, "generations": 2, "duration": 1.0},
    "seed": 5,
    "seed_limit": 2,
}

N_BUILTINS = len(builtin_attack_traces(SPEC_PAYLOAD["budget"]["duration"]))


def _state_of(corpus_dir: str, result) -> dict:
    with open(BehaviorArchive.corpus_path(corpus_dir), "r", encoding="utf-8") as handle:
        behavior_map = json.load(handle)
    return {
        "digest": result.deterministic_digest(),
        "fingerprints": sorted(CorpusStore(str(corpus_dir)).fingerprints()),
        "behavior_map": behavior_map,
        "attacks_registered": result.attacks_registered,
    }


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """Uninterrupted seeded run: the ground truth every resume must match."""
    corpus_dir = tmp_path_factory.mktemp("baseline") / "corpus"
    spec = CampaignSpec.from_dict(SPEC_PAYLOAD)
    result = CampaignRunner(spec, CorpusStore(str(corpus_dir))).run()
    return dict(_state_of(str(corpus_dir), result), corpus_dir=str(corpus_dir))


def _write_spec(tmp_path, payload) -> str:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture()
def spec_file(tmp_path):
    return _write_spec(tmp_path, SPEC_PAYLOAD)


def run_killed(corpus_dir: str, spec_file: str, point: str, nth: int,
               event_type: str = None) -> subprocess.CompletedProcess:
    argv = [
        sys.executable, CRASHSIM,
        "--corpus", str(corpus_dir), "--spec", spec_file,
        "--point", point, "--nth", str(nth),
    ]
    if event_type is not None:
        argv += ["--event-type", event_type]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(CRASHSIM), "..", "src")
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == -signal.SIGKILL, (
        f"harness should die by SIGKILL at {point}/{nth}, got "
        f"{proc.returncode}\nstdout: {proc.stdout}\nstderr: {proc.stderr}"
    )
    return proc


def resume_and_compare(corpus_dir: str, baseline: dict) -> None:
    runner = CampaignRunner.resume(str(corpus_dir))
    result = runner.run()
    resumed = _state_of(str(corpus_dir), result)
    assert resumed["fingerprints"] == baseline["fingerprints"]
    assert resumed["behavior_map"] == baseline["behavior_map"]
    assert resumed["digest"] == baseline["digest"]
    assert resumed["attacks_registered"] == baseline["attacks_registered"]


def test_resume_equivalence_after_generation_checkpoint(tmp_path, spec_file, baseline):
    """Golden test: killed right after generation 1 of scenario 1 resumes
    into a bit-identical campaign (corpus, behavior map, summary digest)."""
    corpus_dir = tmp_path / "corpus"
    run_killed(corpus_dir, spec_file, "post-checkpoint", nth=2)
    view = CampaignJournal(CampaignJournal.corpus_path(str(corpus_dir))).replay()
    assert view.campaign is not None
    assert view.pending_checkpoints()  # scenario 1 checkpointed, not complete
    assert not view.completed
    resume_and_compare(corpus_dir, baseline)


@pytest.mark.slow
def test_resume_after_first_generation_checkpoint(tmp_path, spec_file, baseline):
    corpus_dir = tmp_path / "corpus"
    run_killed(corpus_dir, spec_file, "post-checkpoint", nth=1)
    resume_and_compare(corpus_dir, baseline)


@pytest.mark.slow
def test_resume_after_scenario_boundary_checkpoint(tmp_path, spec_file, baseline):
    # nth=3: first checkpoint of scenario 2 — scenario 1 already complete.
    corpus_dir = tmp_path / "corpus"
    run_killed(corpus_dir, spec_file, "post-checkpoint", nth=3)
    view = CampaignJournal(CampaignJournal.corpus_path(str(corpus_dir))).replay()
    assert len(view.completed) == 1
    resume_and_compare(corpus_dir, baseline)


@pytest.mark.slow
def test_resume_after_torn_append(tmp_path, spec_file, baseline):
    """Kill halfway through writing a checkpoint record: the torn tail is
    detected, skipped, and repaired; the scenario restarts from scratch."""
    corpus_dir = tmp_path / "corpus"
    run_killed(corpus_dir, spec_file, "mid-append", nth=1,
               event_type="generation_checkpoint")
    view = CampaignJournal(CampaignJournal.corpus_path(str(corpus_dir))).replay()
    assert view.torn_records == 1
    assert not view.checkpoints  # the only checkpoint so far was torn off
    resume_and_compare(corpus_dir, baseline)


@pytest.mark.slow
@pytest.mark.parametrize("nth", [1, N_BUILTINS + 1])
def test_resume_after_journaled_insert(tmp_path, spec_file, baseline, nth):
    """Kill with a corpus_insert durable in the journal and no corpus file
    written: resume folds the WAL (nth=1 dies during builtin registration,
    nth=N_BUILTINS+1 during the first harvest)."""
    corpus_dir = tmp_path / "corpus"
    run_killed(corpus_dir, spec_file, "post-append", nth=nth)
    view = CampaignJournal(CampaignJournal.corpus_path(str(corpus_dir))).replay()
    assert len(view.inserts) == nth
    # Nothing reaches the corpus files before the campaign's fold, so they
    # lag the journal by every insert, the last one included; a reader
    # applies them all.
    assert not os.path.exists(os.path.join(corpus_dir, "index.json"))
    last = view.inserts[-1]
    store = CorpusStore(str(corpus_dir))
    if last["new"]:
        assert last["fingerprint"] in store
    else:
        assert store.get(last["fingerprint"]).rediscoveries == last["rediscoveries_after"]
    resume_and_compare(corpus_dir, baseline)


@pytest.mark.slow
def test_resume_after_kill_before_corpus_rename(tmp_path, spec_file, baseline):
    """Kill between writing a corpus temp file and the os.replace publishing
    it: the orphan ``*.tmp`` is swept on reload and the journal replays the
    insert forward.  (nth=2: a campaign's first corpus renames are its
    fold's, one per entry file; rename #2 publishes the second entry file.)"""
    corpus_dir = tmp_path / "corpus"
    run_killed(corpus_dir, spec_file, "pre-rename", nth=2)
    orphans = [name for name in os.listdir(corpus_dir) if name.endswith(".tmp")] + [
        name
        for name in os.listdir(os.path.join(corpus_dir, "entries"))
        if name.endswith(".tmp")
    ]
    assert orphans, "pre-rename kill should leave an orphan temp file"
    resume_and_compare(corpus_dir, baseline)
    leftover = [name for name in os.listdir(corpus_dir) if name.endswith(".tmp")]
    assert not leftover


# ---------------------------------------------------------------------- #
# The process pool: kill the driver mid-scenario, resume from the CLI
# ---------------------------------------------------------------------- #


def _processes_naming(text: str) -> list:
    """Live processes whose command line contains ``text`` (Linux ``/proc``)."""
    found = []
    for path in glob.glob("/proc/[0-9]*/cmdline"):
        try:
            with open(path, "rb") as handle:
                cmdline = handle.read()
        except OSError:
            continue            # exited while we looked
        if text.encode("utf-8") in cmdline:
            found.append(path.split("/")[2])
    return found


def test_a_killed_parallel_run_resumes_to_the_serial_run(tmp_path, baseline, capsys):
    """SIGKILL a ``"backend": "process", "workers": 2`` campaign right after
    its second generation checkpoint; ``run --resume`` finishes it to the
    uninterrupted serial run's digest, entries, index and behavior map, and
    no pool worker of the killed driver outlives it."""
    corpus_dir = str(tmp_path / "corpus")
    spec_file = _write_spec(tmp_path, dict(SPEC_PAYLOAD, backend="process", workers=2))
    run_killed(corpus_dir, spec_file, "post-checkpoint", nth=2)
    if os.path.isdir("/proc/self"):
        deadline = time.monotonic() + 10.0
        while _processes_naming(corpus_dir) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _processes_naming(corpus_dir) == []
    assert CampaignJournal(CampaignJournal.corpus_path(corpus_dir)).replay().pending_checkpoints()
    assert campaign_main(["run", "--corpus", corpus_dir, "--resume"]) == 0
    capsys.readouterr()
    spec = CampaignJournal(CampaignJournal.corpus_path(corpus_dir)).replay().campaign["spec"]
    assert (spec["backend"], spec["workers"]) == ("process", 2)
    assert read_manifest(corpus_dir)["result"]["deterministic_digest"] == baseline["digest"]
    for name in ("index.json", "behavior_map.json"):
        assert filecmp.cmp(
            os.path.join(corpus_dir, name), os.path.join(baseline["corpus_dir"], name), shallow=False
        ), name
    entries = filecmp.dircmp(
        os.path.join(corpus_dir, "entries"), os.path.join(baseline["corpus_dir"], "entries")
    )
    assert not (entries.left_only or entries.right_only or entries.diff_files)


@pytest.mark.slow
def test_double_crash_then_resume(tmp_path, spec_file, baseline):
    """A resumed run that is itself SIGKILLed still resumes to bit-identity."""
    corpus_dir = tmp_path / "corpus"
    run_killed(corpus_dir, spec_file, "post-checkpoint", nth=1)
    argv = [
        sys.executable, CRASHSIM, "--corpus", str(corpus_dir), "--resume",
        "--point", "post-checkpoint", "--nth", "1",
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(CRASHSIM), "..", "src")
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    resume_and_compare(corpus_dir, baseline)
