"""Fleet tests: leases, fencing, compaction, and kill-a-worker bit-identity.

The tier-1 acceptance test runs a two-worker fleet with one worker SIGKILLed
mid-scenario (after its first generation checkpoint, before its heartbeat)
and asserts the surviving worker steals the lease, resumes from the victim's
checkpoint, and the campaign converges to the exact corpus fingerprints,
behavior map and summary digest of an uninterrupted single-process run.

The rest are unit tests for the lease protocol (claim/renew/release/expiry/
steal, with an injected clock), epoch fencing of zombie records, compact()
replay-equivalence, and regressions for the three durability bugfixes
(missing parent-dir fsyncs, rediscovery of a pruned corpus entry, and a
journal file replaced under an open append handle).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.campaign import CampaignRunner, CampaignSpec, CorpusStore
from repro.campaign.worker import run_fleet
from repro.coverage.archive import BehaviorArchive
from repro.journal import CampaignJournal
from repro.traces import TrafficTrace

SID = "reno/traffic/throughput/base"

FLEET_SPEC = {
    "name": "fleet-equivalence",
    "ccas": ["reno", "cubic"],
    "modes": ["traffic"],
    "objectives": ["throughput"],
    "conditions": [{"name": "base"}],
    "budget": {"population_size": 4, "generations": 2, "duration": 1.0},
    "seed": 5,
    "seed_limit": 2,
    # Short TTL so the survivor steals the killed worker's lease quickly.
    "lease_ttl": 2.0,
}


def _journal(tmp_path) -> CampaignJournal:
    return CampaignJournal(str(tmp_path / "journal.jsonl"), fsync=False)


def _state_of(corpus_dir: str, result) -> dict:
    with open(BehaviorArchive.corpus_path(corpus_dir), "r", encoding="utf-8") as handle:
        behavior_map = json.load(handle)
    return {
        "digest": result.deterministic_digest(),
        "fingerprints": sorted(CorpusStore(str(corpus_dir)).fingerprints()),
        "behavior_map": behavior_map,
        "attacks_registered": result.attacks_registered,
    }


# ---------------------------------------------------------------------- #
# Tier-1 acceptance: kill a worker mid-scenario, demand bit-identity
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def fleet_control(tmp_path_factory):
    """The uninterrupted single-process control (``workers=0`` drains the
    whole matrix inline through the same journal protocol)."""
    corpus_dir = tmp_path_factory.mktemp("fleet-control") / "corpus"
    spec = CampaignSpec.from_dict(FLEET_SPEC)
    result = run_fleet(spec, str(corpus_dir), workers=0, telemetry=False)
    return _state_of(str(corpus_dir), result)


def test_fleet_with_killed_worker_matches_serial_control(
    tmp_path_factory, fleet_control, capfd
):
    corpus_dir = tmp_path_factory.mktemp("fleet-killed") / "corpus"
    spec = CampaignSpec.from_dict(FLEET_SPEC)
    result = run_fleet(
        spec,
        str(corpus_dir),
        workers=2,
        kill_worker=0,
        kill_after_checkpoints=1,
        telemetry=False,
    )
    state = _state_of(str(corpus_dir), result)
    assert state["fingerprints"] == fleet_control["fingerprints"]
    assert state["behavior_map"] == fleet_control["behavior_map"]
    assert state["digest"] == fleet_control["digest"]
    assert state["attacks_registered"] == fleet_control["attacks_registered"]
    # The worker subprocesses were told what the driver was: no telemetry
    # files, and — no progress callback given — nothing on stdout.
    for name in ("metrics.jsonl", "run_manifest.json"):
        assert not (corpus_dir / name).exists(), name
    assert capfd.readouterr().out == ""

    # The injected death really produced a steal: some scenario was claimed
    # at a second lease epoch, and whoever completed it was not the victim.
    view = CampaignJournal(CampaignJournal.corpus_path(str(corpus_dir))).replay()
    assert len(view.completed) == len(spec.expand())
    stolen = [
        sid for sid, lease in view.leases.items() if lease.get("lease_epoch", 0) >= 2
    ]
    assert stolen, "killed worker's lease was never stolen"
    for sid in stolen:
        assert view.completed[sid].get("worker") != "w0"


# ---------------------------------------------------------------------- #
# Lease protocol
# ---------------------------------------------------------------------- #


def test_claim_grants_epoch_and_blocks_live_holders(tmp_path):
    journal = _journal(tmp_path)
    lease = journal.claim_lease(SID, "w0", ttl=10.0, now=100.0)
    assert lease is not None
    assert lease["lease_epoch"] == 1
    assert lease["worker_id"] == "w0"
    assert lease["expires_at"] == 110.0
    # Live hold: nobody else can claim, not even the holder again.
    assert journal.claim_lease(SID, "w1", now=105.0) is None
    assert journal.claim_lease(SID, "w0", now=105.0) is None
    # An unrelated scenario is unaffected.
    assert journal.claim_lease("other/scenario", "w1", ttl=10.0, now=105.0) is not None


def test_renew_extends_expiry(tmp_path):
    journal = _journal(tmp_path)
    lease = journal.claim_lease(SID, "w0", ttl=10.0, now=100.0)
    journal.renew_lease(lease, now=108.0)  # horizon = the lease's own ttl
    assert journal.claim_lease(SID, "w1", now=112.0) is None  # extended to 118
    stolen = journal.claim_lease(SID, "w1", ttl=10.0, now=119.0)
    assert stolen is not None and stolen["lease_epoch"] == 2


def test_expired_lease_is_stolen_at_next_epoch(tmp_path):
    journal = _journal(tmp_path)
    journal.claim_lease(SID, "w0", ttl=5.0, now=0.0)
    assert journal.claim_lease(SID, "w1", now=4.9) is None
    stolen = journal.claim_lease(SID, "w1", ttl=5.0, now=5.0)  # expiry inclusive
    assert stolen is not None
    assert stolen["lease_epoch"] == 2
    assert journal.replay().lease_holder(SID, now=6.0) == "w1"


def test_release_makes_scenario_claimable(tmp_path):
    journal = _journal(tmp_path)
    lease = journal.claim_lease(SID, "w0", ttl=1000.0, now=0.0)
    journal.release_lease(lease)
    assert journal.replay().lease_holder(SID, now=1.0) is None
    again = journal.claim_lease(SID, "w1", ttl=1000.0, now=1.0)
    assert again is not None and again["lease_epoch"] == 2


def test_completed_scenario_is_not_claimable(tmp_path):
    journal = _journal(tmp_path)
    journal.append("scenario_complete", {"scenario_id": SID, "outcome": {}})
    assert journal.claim_lease(SID, "w0", now=0.0) is None


def test_legacy_expiryless_lease_never_holds(tmp_path):
    # The old serial runner journaled bare scenario_lease log lines with no
    # worker, epoch or expiry; a fleet must be able to claim over them.
    journal = _journal(tmp_path)
    journal.append("scenario_lease", {"scenario_id": SID})
    assert journal.replay().lease_holder(SID, now=0.0) is None
    lease = journal.claim_lease(SID, "w0", ttl=5.0, now=0.0)
    assert lease is not None and lease["lease_epoch"] == 1


def test_stale_epoch_renew_does_not_revive_a_stolen_lease(tmp_path):
    journal = _journal(tmp_path)
    victim = journal.claim_lease(SID, "w0", ttl=5.0, now=0.0)
    thief = journal.claim_lease(SID, "w1", ttl=5.0, now=10.0)
    assert thief["lease_epoch"] == 2
    journal.renew_lease(victim, ttl=1000.0, now=11.0)  # zombie heartbeat
    view = journal.replay()
    assert view.lease_holder(SID, now=14.0) == "w1"
    assert view.lease_holder(SID, now=16.0) is None  # thief expired; zombie gone


# ---------------------------------------------------------------------- #
# Wall-clock steps (every clock reading is injected through ``now=``)
# ---------------------------------------------------------------------- #


def _assert_zombie_fenced(journal: CampaignJournal, victim: dict) -> None:
    before = journal.replay().fenced_records
    for event_type, payload in _zombie_payloads(epoch=victim["lease_epoch"]):
        journal.append(event_type, payload)
    view = journal.replay()
    assert view.fenced_records == before + 4
    assert SID not in view.completed
    assert not view.inserts
    assert "zz" not in view.behavior_cells


def test_forward_clock_step_lets_a_live_lease_be_stolen_but_fenced(tmp_path):
    journal = _journal(tmp_path)
    victim = journal.claim_lease(SID, "w0", ttl=30.0, now=1_000.0)
    assert journal.claim_lease(SID, "w1", ttl=30.0, now=1_001.0) is None
    # The wall clock jumps an hour ahead one second into a 30 s lease: the
    # holder is alive, but its lease reads as expired and is stolen.
    thief = journal.claim_lease(SID, "w1", ttl=30.0, now=4_601.0)
    assert thief is not None and thief["lease_epoch"] == victim["lease_epoch"] + 1
    # The live "victim" keeps writing and heartbeating on the stepped clock;
    # none of it reaches the view and the thief stays the holder.
    journal.renew_lease(victim, now=4_602.0)
    _assert_zombie_fenced(journal, victim)
    view = journal.replay()
    assert view.lease_holder(SID, now=4_603.0) == "w1"
    assert view.lease_holder(SID, now=4_631.0) is None  # the thief's own ttl


def test_backward_clock_step_delays_the_steal_by_the_step_and_no_more(tmp_path):
    journal = _journal(tmp_path)
    victim = journal.claim_lease(SID, "w0", ttl=30.0, now=5_000.0)
    # The clock falls back an hour and the holder dies without a heartbeat:
    # the scenario stays unclaimable for ttl + step of the new clock ...
    assert journal.claim_lease(SID, "w1", ttl=30.0, now=1_400.0) is None
    assert journal.claim_lease(SID, "w1", ttl=30.0, now=5_029.0) is None
    # ... and not a second longer.
    thief = journal.claim_lease(SID, "w1", ttl=30.0, now=5_030.0)
    assert thief is not None and thief["lease_epoch"] == victim["lease_epoch"] + 1
    _assert_zombie_fenced(journal, victim)


def test_renewal_after_a_backward_step_rebases_the_expiry(tmp_path):
    journal = _journal(tmp_path)
    lease = journal.claim_lease(SID, "w0", ttl=30.0, now=5_000.0)
    journal.renew_lease(lease, now=1_400.0)  # first heartbeat after the step
    assert lease["expires_at"] == 1_430.0
    view = journal.replay()
    assert view.lease_holder(SID, now=1_429.0) == "w0"
    assert view.lease_claimable(SID, now=1_430.0)  # not held until 5030


# ---------------------------------------------------------------------- #
# Epoch fencing
# ---------------------------------------------------------------------- #


def _zombie_payloads(epoch: int):
    return [
        ("generation_checkpoint",
         {"scenario_id": SID, "generation": 7, "fuzzer": {}, "lease_epoch": epoch}),
        ("behavior_delta",
         {"scenario_id": SID, "generation": 7, "cells": {"zz": {"fitness": 1.0}},
          "lease_epoch": epoch}),
        ("corpus_insert",
         {"scenario_id": SID, "fingerprint": "zombie-fp", "new": True,
          "entry": {}, "lease_epoch": epoch}),
        ("scenario_complete",
         {"scenario_id": SID, "outcome": {}, "lease_epoch": epoch}),
    ]


def test_fencing_drops_zombie_records_keeps_victim_progress(tmp_path):
    journal = _journal(tmp_path)
    victim = journal.claim_lease(SID, "w0", ttl=5.0, now=0.0)
    journal.append(
        "generation_checkpoint",
        {"scenario_id": SID, "generation": 0, "fuzzer": {"generation": 0},
         "lease_epoch": victim["lease_epoch"]},
    )
    thief = journal.claim_lease(SID, "w1", ttl=5.0, now=10.0)
    assert thief["lease_epoch"] == 2
    # The thief's post-claim replay sees the victim's durable progress.
    assert journal.replay().checkpoints[SID]["generation"] == 0
    # Everything the zombie writes after the steal is dropped at replay.
    for event_type, payload in _zombie_payloads(epoch=victim["lease_epoch"]):
        journal.append(event_type, payload)
    view = journal.replay()
    assert view.fenced_records == 4
    assert view.checkpoints[SID]["generation"] == 0
    assert SID not in view.completed
    assert not view.inserts
    assert "zz" not in view.behavior_cells


def test_legacy_epochless_records_are_never_fenced(tmp_path):
    journal = _journal(tmp_path)
    journal.claim_lease(SID, "w0", ttl=5.0, now=0.0)
    journal.append(
        "generation_checkpoint", {"scenario_id": SID, "generation": 3, "fuzzer": {}}
    )
    view = journal.replay()
    assert view.fenced_records == 0
    assert view.checkpoints[SID]["generation"] == 3


# ---------------------------------------------------------------------- #
# Compaction
# ---------------------------------------------------------------------- #

OTHER_SID = "cubic/traffic/throughput/base"


def _populate(journal: CampaignJournal) -> None:
    journal.append("campaign_start", {"campaign": "c", "spec": {"name": "c"}})
    journal.append(
        "scenario_seeds",
        {"campaign": "c", "corpus": ["fp-a"], "seeds": {SID: ["fp-a"]}},
    )
    done = journal.claim_lease(SID, "w0", ttl=5.0, now=0.0)
    journal.append(
        "behavior_delta",
        {"scenario_id": SID, "generation": 0, "cells": {"c1": {"fitness": 0.5}},
         "counters": {"evaluations": 4}, "lease_epoch": done["lease_epoch"]},
    )
    journal.append(
        "generation_checkpoint",
        {"scenario_id": SID, "generation": 0, "fuzzer": {"generation": 0},
         "cache": {"entries": []}, "lease_epoch": done["lease_epoch"]},
    )
    journal.append(
        "corpus_insert",
        {"scenario_id": SID, "fingerprint": "fp-b", "new": True,
         "entry": {"trace": {}}, "lease_epoch": done["lease_epoch"]},
    )
    journal.append(
        "scenario_complete",
        {"scenario_id": SID, "outcome": {"best_fitness": 0.5},
         "lease_epoch": done["lease_epoch"], "worker": "w0"},
    )
    journal.release_lease(done)
    pending = journal.claim_lease(OTHER_SID, "w1", ttl=5.0, now=1.0)
    journal.append(
        "generation_checkpoint",
        {"scenario_id": OTHER_SID, "generation": 1, "fuzzer": {"generation": 1},
         "lease_epoch": pending["lease_epoch"], "worker": "w1"},
    )


def _resume_view(view) -> tuple:
    """Everything a fleet resume reads, as a comparable value."""
    return (
        view.campaign,
        view.resumes,
        view.leases,
        view.scenario_seeds,
        view.pending_checkpoints(),
        view.completed,
        view.behavior_deltas,
        view.behavior_cells,
        view.archive_counters,
        view.cache_state,
        view.inserts_by_scenario,
    )


def test_compact_is_replay_equivalent(tmp_path):
    journal = _journal(tmp_path)
    _populate(journal)
    before = journal.replay()
    stats = journal.compact()
    assert stats["records_after"] == 1
    assert stats["records_before"] == before.record_count
    after = journal.replay()
    assert _resume_view(after) == _resume_view(before)
    assert after.compacted_records == before.record_count
    # Appends continue the sequence exactly where they would have.
    appended = journal.append("campaign_resume", {"campaign": "c"})
    assert appended.seq == before.last_seq + 1


def test_compact_preserves_lease_fencing(tmp_path):
    journal = _journal(tmp_path)
    _populate(journal)
    journal.compact()
    # The snapshotted epoch-1 lease still blocks a claim while live...
    assert journal.claim_lease(OTHER_SID, "w2", now=3.0) is None
    # ...and still fences a zombie once stolen past its expiry.
    thief = journal.claim_lease(OTHER_SID, "w2", ttl=5.0, now=100.0)
    assert thief["lease_epoch"] == 2
    journal.append(
        "generation_checkpoint",
        {"scenario_id": OTHER_SID, "generation": 9, "fuzzer": {}, "lease_epoch": 1},
    )
    view = journal.replay()
    assert view.fenced_records == 1
    assert view.checkpoints[OTHER_SID]["generation"] == 1


def test_compact_of_empty_journal_is_a_noop(tmp_path):
    journal = _journal(tmp_path)
    assert journal.compact() is None
    assert not os.path.exists(journal.path)


# ---------------------------------------------------------------------- #
# Durability bugfix regressions
# ---------------------------------------------------------------------- #


def test_rediscovery_of_missing_corpus_entry_degrades_to_new(tmp_path):
    """Bugfix: replaying a rediscovery insert whose corpus entry is missing
    (pruned dir, partial copy, cross-machine merge) used to crash resume;
    it now applies the insert as new and counts a warning."""
    spec = CampaignSpec.from_dict(FLEET_SPEC)
    runner = CampaignRunner(spec, CorpusStore(str(tmp_path / "corpus")))
    trace = TrafficTrace(timestamps=[0.1, 0.2], duration=1.0)
    data = {
        "scenario_id": SID,
        "fingerprint": trace.fingerprint(),
        "new": False,
        "rediscoveries_after": 3,
        "entry": {"scenario_id": SID, "cca": "reno", "trace": trace.to_dict()},
    }
    runner.corpus.apply(data)
    assert runner.corpus.repairs == 1
    assert trace.fingerprint() in runner.corpus
    # Once repaired, replaying the same event again is a plain no-op path.
    runner.corpus.apply(data)
    assert runner.corpus.repairs == 1


def test_append_detects_journal_replaced_under_open_handle(tmp_path):
    """Bugfix: append() kept writing to its original (now unlinked) inode
    after another process rotated/compacted/replaced the journal file; the
    fstat check now reopens the new file and continues its sequence."""
    path = str(tmp_path / "journal.jsonl")
    journal = CampaignJournal(path, fsync=False)
    journal.append("campaign_start", {"campaign": "old"})
    journal.append("campaign_resume", {"campaign": "old"})

    other = CampaignJournal(str(tmp_path / "other.jsonl"), fsync=False)
    other.append("campaign_start", {"campaign": "new"})
    other.close()
    os.replace(str(tmp_path / "other.jsonl"), path)

    record = journal.append("scenario_seeds", {"campaign": "new", "seeds": {}})
    assert record.seq == 2  # continues after the replacement file's records
    records = journal.records()
    assert [r.type for r in records] == ["campaign_start", "scenario_seeds"]
    assert records[0].data["campaign"] == "new"


# ---------------------------------------------------------------------- #
# One scenario body, two isolation policies
# ---------------------------------------------------------------------- #


def test_novelty_guided_fleet_matches_control(tmp_path):
    """Fleet interleaving must not change coverage-guided results: novelty
    guidance reads the archive during selection, so each scenario's private
    archive has to be exactly what the inline control gave it."""
    spec = CampaignSpec.from_dict(
        {**FLEET_SPEC, "name": "fleet-novelty", "guidance": "novelty"}
    )
    states = []
    for name, workers in (("control", 0), ("fleet", 2)):
        corpus_dir = str(tmp_path / name)
        result = run_fleet(spec, corpus_dir, workers=workers, telemetry=False)
        states.append(_state_of(corpus_dir, result))
    assert states[0] == states[1]
    assert states[0]["behavior_map"]["cells"]


def _injected_seeds(view, scenario_id: str) -> list:
    return view.checkpoints[scenario_id]["fuzzer"]["seed_fingerprints"]


def test_serial_and_fleet_isolation_policies_differ_beyond_the_tiny_spec(
    tmp_path, fleet_control
):
    """The serial runner seeds scenario 2 from scenario 1's harvest (live
    corpus); the fleet seeds it from the journaled launch plan.  With the
    default ``seed_limit`` that changes the search, so the two policies are
    different campaigns and must not be merged into one; on ``FLEET_SPEC``
    (``seed_limit: 2``, filled by builtins either way) they coincide."""
    spec = CampaignSpec.from_dict(
        {
            "name": "two-policies",
            "ccas": ["reno", "cubic"],
            "modes": ["traffic"],
            "objectives": ["throughput"],
            "conditions": [{"name": "base"}],
            "budget": {"population_size": 8, "generations": 3, "duration": 0.12},
            "seed": 7,
        }
    )
    reno, cubic = [scenario.scenario_id for scenario in spec.expand()]
    serial = CampaignRunner(
        spec, CorpusStore(str(tmp_path / "serial")), telemetry=False
    ).run()
    fleet = run_fleet(spec, str(tmp_path / "fleet"), workers=0, telemetry=False)
    serial_view, fleet_view = (
        CampaignJournal(CampaignJournal.corpus_path(str(tmp_path / name))).replay()
        for name in ("serial", "fleet")
    )
    assert set(_injected_seeds(serial_view, cubic)) & set(
        serial_view.inserts_by_scenario[reno]
    ), "serial scenario 2 should be seeded from scenario 1's harvest"
    plan = fleet_view.scenario_seeds["seeds"]
    assert _injected_seeds(fleet_view, cubic) == plan[cubic] == plan[reno]
    assert not set(plan[cubic]) & set(fleet_view.inserts_by_scenario[reno])
    assert serial.deterministic_digest() != fleet.deterministic_digest()

    tiny = CampaignRunner(
        CampaignSpec.from_dict(FLEET_SPEC),
        CorpusStore(str(tmp_path / "tiny")),
        telemetry=False,
    ).run()
    assert tiny.deterministic_digest() == fleet_control["digest"]


def test_run_fleet_closes_journal_and_telemetry_when_it_fails(tmp_path, monkeypatch):
    """Bugfix: a fleet that raised (here: a drain worker that completes
    nothing, so the matrix never finishes) leaked the driver's journal handle
    and telemetry stream; finalize now runs in a ``finally``."""
    from repro.campaign.worker import FleetError, FleetWorker
    from repro.obs.telemetry import CampaignTelemetry

    journals, telemetry_closes = [], []
    append, close = CampaignJournal.append, CampaignTelemetry.close
    monkeypatch.setattr(FleetWorker, "run", lambda self: 0)
    monkeypatch.setattr(
        CampaignJournal, "append",
        lambda self, *args: (journals.append(self), append(self, *args))[1],
    )
    monkeypatch.setattr(
        CampaignTelemetry, "close", lambda self: (telemetry_closes.append(self), close(self))
    )
    with pytest.raises(FleetError, match="never completed"):
        run_fleet(CampaignSpec.from_dict(FLEET_SPEC), str(tmp_path / "corpus"), workers=0)
    assert journals and all(journal._handle is None for journal in journals)
    assert telemetry_closes


def test_a_driver_that_raises_after_the_matrix_keeps_the_workers_finds(
    tmp_path, monkeypatch, fleet_control
):
    """Bugfix: a driver that raised after the last ``scenario_complete`` but
    before applying its workers' inserts still marked the journal as folded,
    so readers skipped those finds and a rerun rotated them away.  A failed
    campaign's fold marks nothing; the rerun resumes and finishes it."""
    from repro.campaign import CorpusReader
    from repro.campaign.worker import FleetWorker

    corpus_dir = str(tmp_path / "corpus")
    spec = CampaignSpec.from_dict(FLEET_SPEC)
    drain = FleetWorker.run

    def drain_then_raise(self):
        drain(self)
        raise RuntimeError("driver interrupted")

    with monkeypatch.context() as patch:
        patch.setattr(FleetWorker, "run", drain_then_raise)
        with pytest.raises(RuntimeError, match="driver interrupted"):
            run_fleet(spec, corpus_dir, workers=0, telemetry=False)
    assert CorpusReader(corpus_dir).fingerprints() == fleet_control["fingerprints"]
    result = run_fleet(spec, corpus_dir, workers=0, telemetry=False)
    assert _state_of(corpus_dir, result) == fleet_control


LEGACY_THREAD_MODE_JOURNAL = os.path.join(
    os.path.dirname(__file__), "legacy_thread_mode_journal.jsonl"
)


def test_legacy_thread_mode_journal_resumes_serially(tmp_path):
    """A journal written by the retired ``max_parallel: 2`` thread mode —
    no generation checkpoints, private-archive snapshots in its
    ``scenario_complete`` records, killed with one scenario leased but not
    complete — still resumes: the completed scenarios' archives are merged
    baseline-aware and the rest of the matrix runs serially."""
    corpus_dir = tmp_path / "legacy"
    corpus_dir.mkdir()
    journal_path = CampaignJournal.corpus_path(str(corpus_dir))
    with open(LEGACY_THREAD_MODE_JOURNAL, "r", encoding="utf-8") as source:
        with open(journal_path, "w", encoding="utf-8") as target:
            target.write(source.read())
    before = CampaignJournal(journal_path).replay()
    assert before.campaign["max_parallel"] == 2
    assert not before.checkpoints
    done = sorted(before.completed)
    assert len(done) == 2 and all(before.completed[sid]["archive"]["cells"] for sid in done)

    runner = CampaignRunner.resume(str(corpus_dir), telemetry=False)
    # Baseline-aware merge: every private archive's cells, each observation
    # counted exactly once.
    journaled = [BehaviorArchive.from_dict(before.completed[sid]["archive"]) for sid in done]
    assert set(runner.archive.cell_keys()) == {
        cell for archive in journaled for cell in archive.cell_keys()
    }
    assert runner.archive.counters()["observations"] == sum(
        archive.counters()["observations"] for archive in journaled
    )

    result = runner.run()
    assert len(result.outcomes) == 3
    by_id = {outcome.scenario.scenario_id: outcome for outcome in result.outcomes}
    for sid in done:
        assert by_id[sid].best_fingerprint == before.completed[sid]["outcome"]["best_fingerprint"]
    # The unfinished scenario ran serially: one journaled delta per generation.
    (resumed_sid,) = set(by_id) - set(done)
    after = CampaignJournal(journal_path).replay()
    assert [d["generation"] for d in after.behavior_deltas] == [0, 1]
    assert {d["scenario_id"] for d in after.behavior_deltas} == {resumed_sid}
    saved = BehaviorArchive.load(BehaviorArchive.corpus_path(str(corpus_dir)))
    assert set(runner.archive.cell_keys()) == set(saved.cell_keys())
