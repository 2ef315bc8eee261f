"""End-to-end fault tolerance: campaigns under injected chaos.

The scheme: a control campaign records exactly which trace fingerprints the
GA evaluates first (seeding is deterministic, so a rerun of the same spec
evaluates the same initial batch).  The chaos campaign then faults a known
subset of those fingerprints and the tests assert the blast radius: the
campaign completes, the faulted jobs are quarantined with provenance (into
quarantine.json *and* the journal), and every healthy corpus entry's score
is bit-identical to a fault-free re-evaluation.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign.corpus import CorpusReader, CorpusStore
from repro.campaign.scheduler import CampaignRunner
from repro.campaign.spec import CampaignSpec, GaBudget
from repro.exec import (
    ChaosPlan,
    EvaluationBackend,
    QuarantineStore,
    SerialBackend,
    cca_identity,
    chaos_injection,
    clear_chaos,
    evaluate_job,
    failure_from_summary,
    read_quarantine_entries,
)
from repro.journal import CampaignJournal
from repro.journal.log import read_corpus_journal_view
from repro.obs.metrics import get_registry
from repro.obs.status import collect_status, format_status
from repro.serve import DashboardQuery
from repro.tcp import Reno


@pytest.fixture(autouse=True)
def no_leaked_chaos():
    clear_chaos()
    yield
    clear_chaos()


def tiny_spec(**overrides) -> CampaignSpec:
    params = dict(
        name="chaos-e2e",
        ccas=["reno"],
        modes=["traffic"],
        objectives=["throughput"],
        budget=GaBudget(population_size=4, generations=2, duration=1.0, top_k=3),
        seed=7,
        backend="serial",
    )
    params.update(overrides)
    return CampaignSpec(**params)


class RecordingBackend(SerialBackend):
    """Serial backend that remembers each batch's trace fingerprints."""

    def __init__(self):
        super().__init__()
        self.batches = []

    def _run_jobs(self, jobs):
        self.batches.append([job.trace.fingerprint() for job in jobs])
        return super()._run_jobs(jobs)


def run_campaign(spec, corpus_dir, backend=None):
    runner = CampaignRunner(
        spec, CorpusStore(str(corpus_dir)), backend=backend, telemetry=True
    )
    return runner.run()


def first_batch_fingerprints(tmp_path):
    """The deterministic first evaluation batch of ``tiny_spec()``."""
    recorder = RecordingBackend()
    run_campaign(tiny_spec(), tmp_path / "control", backend=recorder)
    assert recorder.batches, "control campaign evaluated nothing"
    ordered = list(dict.fromkeys(recorder.batches[0]))
    assert len(ordered) >= 2, "need at least two distinct fingerprints to fault"
    return ordered


class Killed(BaseException):
    """A process death, as far as the code under test can tell."""


def kill_before_fold(monkeypatch):
    """Make the next campaign die just before its closing fold (the one
    handed the campaign's map; the bootstrap fold runs)."""
    real = CorpusStore.fold

    def fold(self, mark=True, archive=None, quarantine=None):
        if archive is not None:
            raise Killed
        real(self, mark, archive, quarantine)

    monkeypatch.setattr(CorpusStore, "fold", fold)


def record_failure_kinds(monkeypatch):
    """The failure kind of every evaluation outcome, in order."""
    kinds = []
    evaluate_batch = EvaluationBackend.evaluate_batch

    def recording(self, jobs):
        outcomes = evaluate_batch(self, jobs)
        failures = (failure_from_summary(summary) for _, summary in outcomes)
        kinds.extend(failure.kind for failure in failures if failure is not None)
        return outcomes

    monkeypatch.setattr(EvaluationBackend, "evaluate_batch", recording)
    return kinds


def reevaluate_entry(entry):
    """Fault-free re-evaluation of a corpus entry, discovery-conditions exact."""
    score, _ = evaluate_job(entry.evaluation_job())
    return score.total


class TestChaosCampaignSerial:
    def test_faulted_campaign_completes_quarantines_and_spares_healthy(self, tmp_path):
        targets = first_batch_fingerprints(tmp_path)
        faults = {targets[0]: "crash", targets[1]: "garbage"}
        corpus_dir = tmp_path / "chaos"
        with chaos_injection(ChaosPlan(faults=faults)):
            result = run_campaign(tiny_spec(), corpus_dir)
        # 1. The campaign completed despite the faults.
        assert len(result.outcomes) == 1

        # 2. Deterministic crashers were quarantined, with provenance.
        store = CorpusReader(str(corpus_dir)).quarantine
        assert len(store) == len(faults)
        reno = cca_identity(Reno())
        for fingerprint, kind in faults.items():
            entry = store.find(fingerprint, reno)
            assert entry is not None
            assert entry["kind"] == kind
            assert entry["attempts"] == 1
            assert entry["scenario_id"] == "reno/traffic/throughput/base"

        # 3. The journal carries the same entries (write-ahead), and replaying
        #    them into a fresh store reproduces quarantine.json exactly.
        view = CampaignJournal(CampaignJournal.corpus_path(str(corpus_dir))).replay()
        assert {e["fingerprint"] for e in view.quarantined} == set(faults)
        replayed = QuarantineStore()
        for event in view.quarantined:
            replayed.apply_event(event)
        assert replayed.entries() == store.entries()

        # 4. Every healthy harvested entry re-evaluates bit-identically
        #    fault-free: the chaos never corrupted a healthy result.
        corpus = CorpusStore(str(corpus_dir))
        checked = 0
        for fingerprint in corpus.fingerprints():
            entry = corpus.get(fingerprint)
            if entry.origin != "fuzz" or fingerprint in faults:
                continue
            assert reevaluate_entry(entry) == entry.score
            checked += 1
        assert checked > 0

        # 5. `repro-campaign status` surfaces the failure counters.
        status = collect_status(corpus_dir)
        assert status["faults"]["failures"] >= len(faults)
        assert status["faults"]["quarantined"] >= len(faults)
        assert "faults:" in format_status(status)

    def test_resume_rebuilds_quarantine_from_journal(self, tmp_path, monkeypatch):
        # The one state where quarantine.json lacks a journaled entry: a
        # campaign killed before its fold.  The resumed campaign's store
        # starts from the reader (the file plus the journal), and its fold
        # publishes what the uninterrupted run's did, byte for byte.
        targets = first_batch_fingerprints(tmp_path)
        faults = {targets[0]: "crash"}
        with chaos_injection(ChaosPlan(faults=faults)):
            run_campaign(tiny_spec(), tmp_path / "uninterrupted")
            kill_before_fold(monkeypatch)
            with pytest.raises(Killed):
                run_campaign(tiny_spec(), tmp_path / "killed")
        monkeypatch.undo()
        corpus_dir = tmp_path / "killed"
        assert not (corpus_dir / "quarantine.json").exists()
        runner = CampaignRunner.resume(str(corpus_dir))
        assert [entry["fingerprint"] for entry in runner.quarantine.entries()] == list(faults)
        runner.run()
        assert (corpus_dir / "quarantine.json").read_bytes() == (
            tmp_path / "uninterrupted" / "quarantine.json"
        ).read_bytes()

    def test_new_campaign_keeps_a_journaled_quarantine_the_file_lacks(
        self, tmp_path, monkeypatch
    ):
        # A campaign that dies before its fold leaves its quarantines in the
        # journal alone.  The next campaign rotates that journal away, so it
        # must publish them first.
        targets = first_batch_fingerprints(tmp_path)
        corpus_dir = tmp_path / "killed"
        kill_before_fold(monkeypatch)
        with chaos_injection(ChaosPlan(faults={targets[0]: "crash"})), pytest.raises(Killed):
            run_campaign(tiny_spec(), corpus_dir)
        monkeypatch.undo()
        journaled = read_corpus_journal_view(str(corpus_dir)).quarantined
        assert [entry["fingerprint"] for entry in journaled] == [targets[0]]
        assert read_quarantine_entries(corpus_dir / "quarantine.json") == []

        run_campaign(tiny_spec(name="next"), corpus_dir)
        assert (corpus_dir / "journal-1.jsonl").exists()
        stored = read_quarantine_entries(corpus_dir / "quarantine.json")
        assert stored == journaled

    def test_a_later_campaign_refuses_an_earlier_campaigns_quarantine(
        self, tmp_path, monkeypatch
    ):
        targets = first_batch_fingerprints(tmp_path)
        corpus_dir = tmp_path / "chaos"
        with chaos_injection(ChaosPlan(faults={targets[0]: "crash"})):
            run_campaign(tiny_spec(), corpus_dir)
        assert len(read_quarantine_entries(corpus_dir / "quarantine.json")) == 1
        kinds = record_failure_kinds(monkeypatch)
        hits = get_registry().counter("exec.quarantine_hits")
        run_campaign(tiny_spec(name="later"), corpus_dir)
        assert "quarantined" in kinds
        assert get_registry().counter("exec.quarantine_hits") - hits >= 1

    def test_rankings_count_quarantines_under_the_scenario_cca(self, tmp_path):
        targets = first_batch_fingerprints(tmp_path)
        faults = {targets[0]: "crash", targets[1]: "garbage"}
        corpus_dir = tmp_path / "chaos"
        with chaos_injection(ChaosPlan(faults=faults)):
            run_campaign(tiny_spec(), corpus_dir)
        query = DashboardQuery(str(corpus_dir))
        try:
            rows = query.rankings()["rows"]
        finally:
            query.close()
        assert [row["cca"] for row in rows] == ["reno"]   # no "reno:<hash>" row
        assert rows[0]["quarantined"] == len(faults)


class TestChaosCampaignProcess:
    def test_hang_and_exit_under_process_backend(self, tmp_path):
        targets = first_batch_fingerprints(tmp_path)
        faults = {targets[0]: "hang", targets[1]: "exit"}
        corpus_dir = tmp_path / "chaos-proc"
        spec = tiny_spec(backend="process", workers=2, job_timeout=1.0, max_retries=1)
        with chaos_injection(ChaosPlan(faults=faults, hang_s=300.0)):
            result = run_campaign(spec, corpus_dir)
        assert len(result.outcomes) == 1
        store = CorpusReader(str(corpus_dir)).quarantine
        reno = cca_identity(Reno())
        hung = store.find(targets[0], reno)
        assert hung is not None and hung["kind"] == "timeout"
        died = store.find(targets[1], reno)
        assert died is not None and died["kind"] == "worker-death"
        assert died["attempts"] == 2  # initial try + max_retries
        # Healthy harvested entries still re-evaluate bit-identically.
        corpus = CorpusStore(str(corpus_dir))
        for fingerprint in corpus.fingerprints():
            entry = corpus.get(fingerprint)
            if entry.origin == "fuzz" and fingerprint not in faults:
                assert reevaluate_entry(entry) == entry.score


def test_cli_campaign_under_env_chaos_spares_healthy_results(tmp_path, monkeypatch, capsys):
    """The CI chaos smoke's asserts, runnable locally: a CLI campaign with
    ~25% of evaluations faulted through ``REPRO_CHAOS`` (crash, garbage, hang,
    hard exit; process backend) completes, quarantines with provenance, and
    leaves every healthy harvested entry re-scoring to its stored score.
    Read back through the read-only readers: nothing here writes the corpus."""
    from repro.cli import campaign_main

    # 24 candidates on 2 workers give a prefetch of ceil(24 / 8) = 3, so
    # faults land mid-chunk, not only on a chunk's first ticket.
    spec = tiny_spec(
        name="ci-chaos-smoke",
        budget=GaBudget(population_size=24, generations=2, duration=2.0),
        backend="process", workers=2, job_timeout=2.0, max_retries=1,
    )
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec.to_json())
    corpus_dir = tmp_path / "chaos-corpus"
    # The env pathway, not install_chaos: faults are a keyed hash of each
    # trace fingerprint, so the same subset misbehaves every run.
    monkeypatch.setenv("REPRO_CHAOS", json.dumps({"fraction": 0.25, "hang_s": 300.0}))
    assert campaign_main(["run", "--spec", str(spec_path), "--corpus", str(corpus_dir)]) == 0
    monkeypatch.delenv("REPRO_CHAOS")  # the verification re-evaluates fault-free
    capsys.readouterr()

    # 1. The campaign quarantined deterministic crashers, with provenance.
    stored = read_quarantine_entries(corpus_dir / "quarantine.json")
    assert stored, "chaos injected no quarantined failures"
    for entry in stored:
        assert entry["kind"] in ("crash", "garbage", "timeout", "worker-death")
        assert entry["message"] and entry["fingerprint"] and entry["cca"]
        assert entry["scenario_id"] == "reno/traffic/throughput/base"

    # 2. The journal write-ahead log replays to the same quarantine.
    view = read_corpus_journal_view(str(corpus_dir))
    assert {(e["fingerprint"], e["cca"]) for e in view.quarantined} == {
        (e["fingerprint"], e["cca"]) for e in stored
    }

    # 3. Every healthy harvested entry re-scores bit-identically.
    quarantined = {entry["fingerprint"] for entry in stored}
    healthy = [
        entry for entry in CorpusReader(str(corpus_dir)).entries()
        if entry.origin == "fuzz" and entry.fingerprint not in quarantined
    ]
    assert healthy, "no healthy harvested entries to verify"
    for entry in healthy:
        assert reevaluate_entry(entry) == entry.score, entry.fingerprint

    # 4. The status view surfaces the failure counters.
    faults = collect_status(corpus_dir)["faults"]
    assert faults["failures"] >= len(stored), faults
    assert faults["quarantined"] >= len(stored), faults
