"""Tests for fault-tolerant evaluation: chaos, failures, retry, quarantine.

The contract under test: evaluate_batch always returns one outcome per job,
in input order, no matter what individual evaluations do — crash, hang,
return garbage or kill their worker — and the healthy jobs' outcomes stay
bit-identical to a fault-free run.  Failures become deterministic penalty
outcomes with structured metadata, deterministic crashers are quarantined
with provenance, and a dead process pool degrades to serial rather than
aborting.
"""

from __future__ import annotations

import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import CCFuzz, FuzzConfig
from repro.exec import (
    ChaosPlan,
    EvaluationFailure,
    EvaluationJob,
    FaultPolicy,
    PENALTY_FITNESS,
    ProcessPoolBackend,
    QuarantineStore,
    SerialBackend,
    TraceCache,
    active_plan,
    cca_identity,
    chaos_injection,
    clear_chaos,
    evaluate_job,
    failure_from_summary,
    guarded_evaluate,
)
from repro.exec.faults import backoff_s
from repro.campaign.corpus import CorpusReader, CorpusStore
from repro.campaign.scheduler import campaign_backend
from repro.campaign.spec import CampaignSpec
from repro.netsim import SimulationConfig
from repro.obs.metrics import get_registry
from repro.scoring import LowUtilizationScore, ScoreFunction
from repro.tcp import Reno
from repro.traces import TrafficTraceGenerator


def make_jobs(count: int = 6, seed: int = 3):
    generator = TrafficTraceGenerator(duration=1.0, max_packets=30, seed=seed)
    score_function = ScoreFunction(performance=LowUtilizationScore())
    return [
        EvaluationJob(Reno, SimulationConfig(duration=1.0), trace, score_function)
        for trace in generator.generate_population(count)
    ]


JOBS = make_jobs()
FINGERPRINTS = [job.trace.fingerprint() for job in JOBS]
BASELINE = [evaluate_job(job) for job in JOBS]


@pytest.fixture(autouse=True)
def no_leaked_chaos():
    clear_chaos()
    yield
    clear_chaos()


class TestChaosPlan:
    def test_explicit_faults_win_and_are_deterministic(self):
        plan = ChaosPlan(faults={FINGERPRINTS[0]: "crash"})
        for _ in range(3):
            assert plan.fault_for(FINGERPRINTS[0]) == "crash"
            assert plan.fault_for(FINGERPRINTS[1]) is None

    def test_fraction_selection_is_stable_and_roughly_proportional(self):
        plan = ChaosPlan(fraction=0.3)
        fingerprints = [f"fp-{i}" for i in range(2000)]
        first = [plan.fault_for(fp) for fp in fingerprints]
        assert first == [plan.fault_for(fp) for fp in fingerprints]
        faulted = sum(1 for fault in first if fault is not None)
        assert 0.2 < faulted / len(fingerprints) < 0.4
        assert {fault for fault in first if fault is not None} == set(plan.kinds)

    def test_salt_changes_the_faulted_subset(self):
        a = ChaosPlan(fraction=0.3, salt="a")
        b = ChaosPlan(fraction=0.3, salt="b")
        fingerprints = [f"fp-{i}" for i in range(500)]
        assert [a.fault_for(fp) for fp in fingerprints] != [
            b.fault_for(fp) for fp in fingerprints
        ]

    def test_validation(self):
        with pytest.raises(ValueError, match="fault kind"):
            ChaosPlan(faults={"fp": "meltdown"})
        with pytest.raises(ValueError, match="fraction"):
            ChaosPlan(fraction=1.5)
        with pytest.raises(ValueError, match="kinds"):
            ChaosPlan(fraction=0.1, kinds=())
        with pytest.raises(ValueError, match="hang_s"):
            ChaosPlan(hang_s=0.0)

    def test_dict_round_trip(self):
        plan = ChaosPlan(faults={"fp": "hang"}, fraction=0.1, salt="x", hang_s=2.0)
        assert ChaosPlan.from_dict(plan.to_dict()) == plan
        # Plans written when the exit status was a field still load.
        assert ChaosPlan.from_dict(dict(plan.to_dict(), exit_code=23)) == plan

    def test_install_reaches_active_plan_and_environment(self, monkeypatch):
        import os

        assert active_plan() is None
        plan = ChaosPlan(faults={"fp": "crash"})
        with chaos_injection(plan):
            assert active_plan() == plan
            # Subprocesses see the same plan through the environment.
            assert ChaosPlan.from_dict(json.loads(os.environ["REPRO_CHAOS"])) == plan
        assert active_plan() is None
        assert "REPRO_CHAOS" not in os.environ

    def test_malformed_environment_plan_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "{not json")
        assert active_plan() is None


class TestGuardedEvaluate:
    def test_healthy_job_matches_direct_evaluation(self):
        status, outcome = guarded_evaluate(JOBS[0])
        assert status == "ok"
        assert outcome == BASELINE[0]

    def test_injected_crash_becomes_structured_failure(self):
        plan = ChaosPlan(faults={FINGERPRINTS[0]: "crash"})
        status, failure = guarded_evaluate(JOBS[0], plan)
        assert status == "fail"
        assert failure.kind == "crash"
        assert "chaos" in failure.message
        assert failure.fingerprint == FINGERPRINTS[0]
        assert failure.cca == cca_identity(Reno())

    def test_injected_garbage_is_caught_by_shape_check(self):
        plan = ChaosPlan(faults={FINGERPRINTS[0]: "garbage"})
        status, failure = guarded_evaluate(JOBS[0], plan)
        assert status == "fail"
        assert failure.kind == "garbage"
        assert "not a Score" in failure.message

    @pytest.mark.parametrize("kind", ["hang", "exit"])
    def test_in_process_backends_downgrade_hang_and_exit(self, kind):
        # allow_exit=False is how the serial backend survives faults that
        # would otherwise wedge or kill the host process.
        plan = ChaosPlan(faults={FINGERPRINTS[0]: kind})
        status, failure = guarded_evaluate(JOBS[0], plan, allow_exit=False)
        assert status == "fail"
        assert failure.kind == "crash"
        assert kind in failure.message

    def test_truncated_simulation_is_a_crash_not_a_score(self):
        # A run the event cap cut short measured only part of the trace; its
        # "stall" would be an artifact, so it must surface as a failure.
        job = EvaluationJob(
            Reno,
            SimulationConfig(duration=1.0, max_events=500),
            JOBS[0].trace,
            JOBS[0].score_function,
        )
        status, failure = guarded_evaluate(job)
        assert status == "fail"
        assert failure.kind == "crash"
        assert "SimulationTruncated" in failure.message and "max_events=500" in failure.message

    def test_real_exception_is_described(self):
        job = EvaluationJob(
            Reno,
            SimulationConfig(duration=1.0),
            JOBS[0].trace,
            score_function="not-a-score-function",  # type: ignore[arg-type]
        )
        status, failure = guarded_evaluate(job)
        assert status == "fail"
        assert failure.kind == "crash"
        assert "raised at" in failure.message


class TestFailureTypes:
    def test_kind_is_validated(self):
        with pytest.raises(ValueError, match="kind"):
            EvaluationFailure(kind="oops", message="", fingerprint="fp", cca="reno")

    def test_dict_round_trip_and_quarantined_flag(self):
        failure = EvaluationFailure(
            kind="timeout", message="m", fingerprint="fp", cca="reno", attempts=3
        )
        assert "quarantined" not in failure.to_dict()
        assert EvaluationFailure.from_dict(failure.to_dict()) == failure
        flagged = EvaluationFailure(
            kind="quarantined", message="m", fingerprint="fp", cca="reno",
            quarantined=True,
        )
        assert flagged.to_dict()["quarantined"] is True
        assert EvaluationFailure.from_dict(flagged.to_dict()) == flagged

    def test_failure_from_summary(self):
        failure = EvaluationFailure(kind="crash", message="m", fingerprint="fp", cca="reno")
        score, summary = (
            SerialBackend()._resolve(("fail", failure))
        )
        assert score.total == PENALTY_FITNESS
        assert failure_from_summary(summary) == failure
        assert failure_from_summary({"other": 1}) is None

    def test_policy_validation_and_backoff(self):
        with pytest.raises(ValueError, match="job_timeout"):
            FaultPolicy(job_timeout=0.0)
        with pytest.raises(ValueError, match="job_timeout"):
            FaultPolicy(job_timeout=float("nan"))
        with pytest.raises(ValueError, match="max_retries"):
            FaultPolicy(max_retries=-1)
        assert backoff_s(1) == pytest.approx(0.05)
        assert backoff_s(2) == pytest.approx(0.1)
        assert backoff_s(6) == pytest.approx(1.0)  # capped


class TestConfigPlumbing:
    def test_campaign_spec_validates_and_serialises_fault_knobs(self):
        # The spec validates its execution values by building what they
        # feed, so each rule is the one of the layer that uses the value.
        for overrides, message in (
            ({"job_timeout": 0.0}, r"job_timeout must be positive \(or None to disable\)"),
            ({"max_retries": -2}, "max_retries must be non-negative"),
            ({"workers": 0}, "workers must be at least 1"),
            ({"backend": "quantum"}, r"backend must be one of \('serial', 'process'\), got 'quantum'"),
        ):
            with pytest.raises(ValueError, match=message):
                CampaignSpec(**overrides)
        spec = CampaignSpec(job_timeout=7.5, max_retries=4)
        restored = CampaignSpec.from_dict(json.loads(spec.to_json()))
        assert restored.job_timeout == 7.5
        assert restored.max_retries == 4
        # ... and the spec is the only carrier: the values reach evaluations
        # as the policy on the backend the campaign builds from it.
        store = QuarantineStore()
        with campaign_backend(restored, store) as backend:
            assert (backend.policy.job_timeout, backend.policy.max_retries) == (7.5, 4)
            assert backend.policy.quarantine is store

    def test_snapshot_carrying_legacy_fault_knobs_resumes(self):
        config = FuzzConfig(
            mode="traffic", population_size=4, generations=2, duration=1.0,
            average_rate_mbps=3.0, max_traffic_packets=40, seed=13,
        )
        snapshots = []
        # A snapshot names each outcome by reference to the cache it came from.
        cache = TraceCache()
        uninterrupted = CCFuzz(Reno, config=config, cache=cache).run(checkpoint=snapshots.append)
        assert set(snapshots[0]["config"]) == {
            "mode", "population_size", "islands", "generations", "seed", "guidance",
        }
        # Older snapshots also recorded the writer's fault-tolerance knobs
        # (every checkpoint in tests/legacy_full_dump_journal.jsonl does);
        # they were provenance, never identity, and such a snapshot resumes.
        legacy = json.loads(json.dumps(snapshots[0]))
        legacy["config"].update({"job_timeout": 9.0, "max_retries": 5})
        resumed = CCFuzz(Reno, config=config, cache=cache).run(resume_from=legacy)
        assert resumed.best_fitness == uninterrupted.best_fitness
        assert resumed.best_trace.fingerprint() == uninterrupted.best_trace.fingerprint()


class TestQuarantineStore:
    def make_failure(self, fingerprint="fp-1", cca="reno", kind="crash"):
        return EvaluationFailure(
            kind=kind, message="boom", fingerprint=fingerprint, cca=cca
        )

    def test_record_persists_and_reloads(self, tmp_path):
        store = QuarantineStore()
        assert store.record(self.make_failure()) is True
        assert store.record(self.make_failure()) is False  # idempotent
        assert len(store) == 1
        # The corpus fold is quarantine.json's one writer, its reader the one reader.
        CorpusStore(str(tmp_path)).fold(quarantine=store)
        reloaded = CorpusReader(str(tmp_path)).quarantine
        assert reloaded.find("fp-1", "reno")["kind"] == "crash"
        payload = json.loads((tmp_path / "quarantine.json").read_text())
        assert payload["schema"] == 1
        assert payload["entries"][0]["message"] == "boom"

    def test_file_contents_are_deterministic(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        for directory, order in ((a_dir, (1, 2)), (b_dir, (2, 1))):
            store = QuarantineStore()
            for index in order:
                store.record(self.make_failure(fingerprint=f"fp-{index}"))
            CorpusStore(str(directory)).fold(quarantine=store)
        assert (a_dir / "quarantine.json").read_bytes() == (
            b_dir / "quarantine.json"
        ).read_bytes()

    def test_fold_publishes_only_a_change(self, tmp_path):
        corpus = CorpusStore(str(tmp_path))
        corpus.fold(quarantine=QuarantineStore())
        assert not (tmp_path / "quarantine.json").exists()  # nothing refused, no file
        store = QuarantineStore([self.make_failure().to_dict()])
        corpus.fold(quarantine=store)
        published = (tmp_path / "quarantine.json").stat().st_ino
        corpus.fold(quarantine=store)           # unchanged: not replaced
        assert (tmp_path / "quarantine.json").stat().st_ino == published
        assert corpus.quarantine.entries() == store.entries()

    def test_journal_hook_runs_before_persistence(self, tmp_path):
        events = []

        def hook(entry):
            events.append(dict(entry))
            # Write-ahead: at hook time the entry must not be applied yet.
            assert len(store) == 0

        store = QuarantineStore(journal_hook=hook)
        store.context = {"scenario_id": "s1", "worker": "w0"}
        store.record(self.make_failure())
        assert events[0]["scenario_id"] == "s1"
        assert events[0]["worker"] == "w0"
        assert store.find("fp-1", "reno")["scenario_id"] == "s1"

    def test_apply_event_is_idempotent_and_never_journals(self, tmp_path):
        events = []
        store = QuarantineStore(journal_hook=events.append)
        entry = {"kind": "crash", "message": "m", "fingerprint": "fp", "cca": "reno"}
        assert store.apply_event(entry) is True
        assert store.apply_event(entry) is False
        assert events == []

    def test_torn_file_is_tolerated(self, tmp_path):
        path = tmp_path / "quarantine.json"
        path.write_text('{"schema": 1, "entr')
        assert len(CorpusReader(str(tmp_path)).quarantine) == 0


class TestBackendFaultHandling:
    def run_with_plan(self, backend, plan):
        with chaos_injection(plan):
            with backend:
                return backend.evaluate_batch(JOBS)

    @pytest.mark.parametrize(
        "backend_factory",
        [SerialBackend],
        ids=["serial"],
    )
    def test_in_process_backends_fold_all_fault_kinds(self, backend_factory):
        plan = ChaosPlan(
            faults={
                FINGERPRINTS[0]: "crash",
                FINGERPRINTS[1]: "garbage",
                FINGERPRINTS[2]: "hang",
                FINGERPRINTS[3]: "exit",
            }
        )
        outcomes = self.run_with_plan(backend_factory(), plan)
        assert len(outcomes) == len(JOBS)
        for index in range(4):
            failure = failure_from_summary(outcomes[index][1])
            assert failure is not None
            assert outcomes[index][0].total == PENALTY_FITNESS
        # hang/exit downgrade to crash without process isolation.
        assert failure_from_summary(outcomes[2][1]).kind == "crash"
        assert failure_from_summary(outcomes[3][1]).kind == "crash"
        # Healthy jobs: bit-identical to the fault-free baseline, in order.
        assert outcomes[4:] == BASELINE[4:]

    def test_process_backend_contains_crash_and_garbage(self):
        plan = ChaosPlan(
            faults={FINGERPRINTS[0]: "crash", FINGERPRINTS[1]: "garbage"}
        )
        backend = ProcessPoolBackend(workers=2, policy=FaultPolicy())
        outcomes = self.run_with_plan(backend, plan)
        assert failure_from_summary(outcomes[0][1]).kind == "crash"
        assert failure_from_summary(outcomes[1][1]).kind == "garbage"
        assert outcomes[2:] == BASELINE[2:]

    def test_process_backend_kills_hung_worker_within_timeout(self):
        plan = ChaosPlan(faults={FINGERPRINTS[0]: "hang"})
        backend = ProcessPoolBackend(
            workers=2, policy=FaultPolicy(job_timeout=1.0, max_retries=0)
        )
        started = time.monotonic()
        outcomes = self.run_with_plan(backend, plan)
        elapsed = time.monotonic() - started
        failure = failure_from_summary(outcomes[0][1])
        assert failure.kind == "timeout"
        assert "1s wall clock" in failure.message
        # job_timeout plus one scheduling quantum plus pool startup slack.
        assert elapsed < 1.0 + 5.0
        assert outcomes[1:] == BASELINE[1:]

    def test_process_backend_retries_worker_death_then_fails(self):
        plan = ChaosPlan(faults={FINGERPRINTS[0]: "exit"})
        backend = ProcessPoolBackend(
            workers=2, policy=FaultPolicy(max_retries=1)
        )
        retries_before = get_registry().counter("exec.retries")
        outcomes = self.run_with_plan(backend, plan)
        failure = failure_from_summary(outcomes[0][1])
        assert failure.kind == "worker-death"
        assert "exit code 23" in failure.message
        assert failure.attempts == 2  # initial try + one retry
        assert get_registry().counter("exec.retries") - retries_before >= 1
        assert outcomes[1:] == BASELINE[1:]

    def test_quarantined_jobs_are_refused_on_later_batches(self, tmp_path):
        store = QuarantineStore()
        plan = ChaosPlan(faults={FINGERPRINTS[0]: "crash"})
        backend = SerialBackend(policy=FaultPolicy(quarantine=store))
        with chaos_injection(plan):
            first = backend.evaluate_batch(JOBS)
        assert failure_from_summary(first[0][1]).kind == "crash"
        assert store.find(FINGERPRINTS[0], cca_identity(Reno())) is not None
        # No chaos this time: the store alone must refuse the job.
        second = backend.evaluate_batch(JOBS)
        refusal = failure_from_summary(second[0][1])
        assert refusal.kind == "quarantined"
        assert refusal.quarantined is True
        assert "refused by quarantine" in refusal.message
        assert second[1:] == BASELINE[1:]

    def test_worker_death_is_not_quarantined_until_retries_exhausted(self, tmp_path):
        store = QuarantineStore()
        plan = ChaosPlan(faults={FINGERPRINTS[0]: "exit"})
        backend = ProcessPoolBackend(
            workers=2,
            policy=FaultPolicy(max_retries=1, quarantine=store),
        )
        outcomes = self.run_with_plan(backend, plan)
        assert failure_from_summary(outcomes[0][1]).kind == "worker-death"
        entry = store.find(FINGERPRINTS[0], cca_identity(Reno()))
        assert entry is not None
        assert entry["attempts"] == 2


class TestCloseAndRestart:
    @pytest.mark.parametrize(
        "backend_factory",
        [
            SerialBackend,
            lambda: ProcessPoolBackend(workers=2),
        ],
        ids=["serial", "process"],
    )
    def test_close_is_idempotent_and_pools_restart_lazily(self, backend_factory):
        backend = backend_factory()
        jobs = JOBS[:2]
        assert backend.evaluate_batch(jobs) == BASELINE[:2]
        backend.close()
        backend.close()  # idempotent
        # Evaluate-after-close: the pool restarts lazily instead of raising.
        assert backend.evaluate_batch(jobs) == BASELINE[:2]
        backend.close()


class TestGaUnderFaults:
    def test_fuzzer_completes_with_faults_and_penalizes_them(self):
        plan = ChaosPlan(fraction=0.2, kinds=("crash", "garbage"), salt="ga")
        config = FuzzConfig(
            mode="traffic", population_size=6, generations=3, duration=1.0,
            average_rate_mbps=3.0, max_traffic_packets=40, seed=13,
        )
        with chaos_injection(plan):
            result = CCFuzz(Reno, config=config).run()
        # The campaign completes and the winner is a healthy evaluation.
        assert result.best_fitness > PENALTY_FITNESS / 2
        assert result.best_individual.result_summary.get("failure") is None


FAULT_PATTERNS = st.dictionaries(
    keys=st.sampled_from(FINGERPRINTS),
    values=st.sampled_from(("crash", "garbage")),
    max_size=len(FINGERPRINTS) - 1,
)


class TestHealthyJobsUnchangedProperty:
    @pytest.fixture(scope="class")
    def process_backend(self):
        backend = ProcessPoolBackend(workers=2, policy=FaultPolicy())
        yield backend
        backend.close()

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(faults=FAULT_PATTERNS)
    def test_arbitrary_fault_patterns_spare_healthy_jobs(
        self, faults, process_backend
    ):
        """Whatever subset crashes, healthy outcomes and ordering never move.

        crash/garbage faults are handled inside the pool worker (no respawn),
        so the process backend can participate without pool churn; hang/exit
        have their own deterministic tests above.
        """
        plan = ChaosPlan(faults=faults)
        backends = [SerialBackend(), process_backend]
        for backend in backends:
            with chaos_injection(plan):
                outcomes = backend.evaluate_batch(JOBS)
            assert len(outcomes) == len(JOBS)
            for index, fingerprint in enumerate(FINGERPRINTS):
                if fingerprint in faults:
                    failure = failure_from_summary(outcomes[index][1])
                    assert failure is not None
                    assert failure.kind == faults[fingerprint]
                    assert outcomes[index][0].total == PENALTY_FITNESS
                else:
                    assert outcomes[index] == BASELINE[index]
