"""Crash-recovery tests: SIGKILL a campaign, resume it, demand bit-identity.

The harness in :mod:`crashsim` runs a seeded serial campaign in a subprocess
with a SIGKILL planted at a deterministic injection point.  Each test then
resumes the wreckage in-process via :meth:`CampaignRunner.resume` and asserts
the final corpus fingerprints, behavior map and campaign summary digest are
bit-identical to an uninterrupted run of the same spec and seed.

The golden resume-equivalence test (kill after generation 1 of the first
scenario) runs in tier-1; the full injection matrix is ``slow``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys

import pytest

from repro.attacks import builtin_attack_traces
from repro.campaign import CampaignRunner, CampaignSpec, CorpusStore
from repro.coverage.archive import BehaviorArchive
from repro.journal import CampaignJournal

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
    return _state_of(str(corpus_dir), result)


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC_PAYLOAD), encoding="utf-8")
    return str(path)


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
# Fleet crash recovery: kill a *worker* (the driver survives and the lease
# is stolen), and kill the *driver* (a rerun resumes the fleet campaign).
# ---------------------------------------------------------------------- #

FLEET_SPEC_PAYLOAD = dict(SPEC_PAYLOAD, name="crash-recovery-fleet", lease_ttl=2.0)


@pytest.fixture()
def fleet_spec_file(tmp_path):
    path = tmp_path / "fleet-spec.json"
    path.write_text(json.dumps(FLEET_SPEC_PAYLOAD), encoding="utf-8")
    return str(path)


def run_fleet_sim(corpus_dir: str, spec_file: str, *extra: str) -> dict:
    """Run crashsim in fleet mode to completion; returns its JSON report.

    Worker subprocesses share stdout, so the report is the last line.
    """
    argv = [
        sys.executable, CRASHSIM,
        "--corpus", str(corpus_dir), "--spec", spec_file, "--fleet",
    ] + list(extra)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(CRASHSIM), "..", "src")
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, (
        f"fleet harness failed: {proc.returncode}\n"
        f"stdout: {proc.stdout}\nstderr: {proc.stderr}"
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def fleet_baseline(tmp_path_factory):
    """Uninterrupted inline (``--fleet 0``) control for the fleet spec."""
    corpus_dir = tmp_path_factory.mktemp("fleet-baseline") / "corpus"
    spec_path = corpus_dir.parent / "spec.json"
    spec_path.write_text(json.dumps(FLEET_SPEC_PAYLOAD), encoding="utf-8")
    return run_fleet_sim(corpus_dir, str(spec_path), "0")


@pytest.mark.slow
def test_fleet_kill_worker_mid_generation(tmp_path, fleet_spec_file, fleet_baseline):
    """Worker w0 SIGKILLs itself right after its first generation checkpoint;
    the survivor steals the lease, resumes from the checkpoint, and the
    campaign is bit-identical to the uninterrupted control."""
    corpus_dir = tmp_path / "corpus"
    report = run_fleet_sim(
        corpus_dir, fleet_spec_file,
        "2", "--kill-worker", "0", "--kill-after-checkpoints", "1",
    )
    assert report == fleet_baseline
    view = CampaignJournal(CampaignJournal.corpus_path(str(corpus_dir))).replay()
    stolen = [
        sid for sid, lease in view.leases.items()
        if lease.get("lease_epoch", 0) >= 2
    ]
    assert stolen, "the killed worker's lease was never stolen"


@pytest.mark.slow
def test_fleet_driver_killed_then_resumed(tmp_path, fleet_spec_file, fleet_baseline):
    """SIGKILL the fleet *driver* mid-scenario (after the second generation
    checkpoint of its inline drain); rerunning the same fleet command resumes
    the campaign from the journal to bit-identity."""
    corpus_dir = tmp_path / "corpus"
    argv = [
        sys.executable, CRASHSIM,
        "--corpus", str(corpus_dir), "--spec", fleet_spec_file,
        "--fleet", "0", "--point", "post-checkpoint", "--nth", "2",
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(CRASHSIM), "..", "src")
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    view = CampaignJournal(CampaignJournal.corpus_path(str(corpus_dir))).replay()
    assert view.scenario_seeds is not None
    assert view.pending_checkpoints()
    report = run_fleet_sim(corpus_dir, fleet_spec_file, "0")
    assert report == fleet_baseline


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
