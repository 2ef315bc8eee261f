"""CCFuzz checkpoint/resume: snapshots must round-trip bit-identically.

A campaign resumed after a crash re-runs a scenario from its latest
generation checkpoint, so a snapshot restored into a *fresh* CCFuzz must
continue to exactly the result the uninterrupted run produced — population,
RNG stream, counters and history included — on every evaluation backend.
"""

from __future__ import annotations

import json

import pytest

from repro.core import islands as islands_module
from repro.core.fuzzer import CCFuzz, FuzzConfig, SNAPSHOT_SCHEMA
from repro.coverage.archive import BehaviorArchive
from repro.exec.backend import create_backend
from repro.exec.cache import TraceCache
from repro.scoring.objectives import make_score_function
from repro.tcp.cca import cca_factory
from repro.traces.trace import unpack_le

SCORE = make_score_function("throughput", "traffic")


def make_fuzzer(backend=None, seed=7, archive=None, cache=None, cca="reno", **overrides):
    params = dict(mode="traffic", population_size=4, generations=3, duration=1.0, seed=seed)
    params.update(overrides)
    return CCFuzz(
        cca_factory(cca),
        config=FuzzConfig(**params),
        score_function=SCORE,
        backend=backend,
        archive=archive,
        cache=cache,
    )


def run_capturing(fuzzer, cache=None):
    """Run to completion, capturing per-generation snapshots (+ cache dumps).

    The campaign journal checkpoints the evaluation cache alongside the
    fuzzer snapshot; mirroring that here keeps hit/miss counters exact.
    """
    snapshots, cache_dumps = [], []

    def capture(state):
        snapshots.append(state)
        if cache is not None:
            cache_dumps.append(cache.dump())

    result = fuzzer.run(checkpoint=capture)
    return result, snapshots, cache_dumps


def resume_at(index, snapshots, cache_dumps, backend=None, **overrides):
    """Fresh fuzzer + restored cache, resumed from the index-th checkpoint."""
    cache = TraceCache()
    cache.restore(cache_dumps[index])
    fuzzer = make_fuzzer(backend, cache=cache, **overrides)
    return fuzzer.run(resume_from=json.loads(json.dumps(snapshots[index])))


def result_fingerprint(result):
    return {
        "best_fitness": result.best_fitness,
        "best_trace": result.best_trace.fingerprint(),
        "trajectory": result.fitness_trajectory(),
        "evaluations": result.total_evaluations,
        "cache_hits": result.cache_hits,
        "converged_generation": result.converged_generation,
        "population": sorted(
            individual.trace.fingerprint() for individual in result.final_population
        ),
    }


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_resume_from_midrun_snapshot_is_bit_identical(backend):
    cache = TraceCache()
    with create_backend(backend, workers=2) as pool:
        baseline, snapshots, cache_dumps = run_capturing(make_fuzzer(pool, cache=cache), cache)
        assert len(snapshots) == baseline.converged_generation + 1
        assert snapshots[0]["generation"] == 0 and not snapshots[0]["converged"]
        # resume_at JSON-round-trips the snapshot: that is exactly what the
        # campaign journal does to it.
        resumed = resume_at(0, snapshots, cache_dumps, pool)
    assert result_fingerprint(resumed) == result_fingerprint(baseline)


def test_snapshots_before_early_stopping_went_still_resume():
    """Snapshots written while the search could stop early carry the stopping
    rule's progress as ``criterion``; a resume ignores it."""
    cache = TraceCache()
    baseline, snapshots, cache_dumps = run_capturing(make_fuzzer(cache=cache), cache)
    assert all("criterion" not in state for state in snapshots)
    state = json.loads(json.dumps(snapshots[0]))
    state["criterion"] = {"best": baseline.generations[0].best_fitness, "stale_generations": 0}
    restored = TraceCache()
    restored.restore(cache_dumps[0])
    resumed = make_fuzzer(cache=restored).run(resume_from=state)
    assert result_fingerprint(resumed) == result_fingerprint(baseline)


@pytest.mark.parametrize("index", [1, 2])
def test_resume_from_a_later_snapshot_stops_at_the_same_generation(index):
    """The stopping rule is a function of the generation alone: a run resumed
    from any checkpoint before the last finishes exactly where the baseline did."""
    cache = TraceCache()
    baseline, snapshots, cache_dumps = run_capturing(
        make_fuzzer(cache=cache, generations=4), cache
    )
    assert [state["converged"] for state in snapshots] == [False, False, False, True]
    resumed = resume_at(index, snapshots, cache_dumps, generations=4)
    assert resumed.converged_generation == 3
    assert result_fingerprint(resumed) == result_fingerprint(baseline)


def test_resume_from_converged_snapshot_reconstructs_result():
    cache = TraceCache()
    baseline, snapshots, cache_dumps = run_capturing(make_fuzzer(cache=cache), cache)
    assert snapshots[-1]["converged"]
    resumed = resume_at(len(snapshots) - 1, snapshots, cache_dumps)
    assert result_fingerprint(resumed) == result_fingerprint(baseline)


def test_snapshot_contents_and_schema():
    _, snapshots, _ = run_capturing(make_fuzzer())
    state = snapshots[0]
    assert state["schema"] == SNAPSHOT_SCHEMA
    version, internal, gauss = state["rng_state"]
    # The Mersenne Twister's 625 words, packed as little-endian uint32.
    words = unpack_le(internal, "I")
    assert version == 3 and len(words) == 625
    assert all(0 <= word < 2**32 for word in words) and words[-1] <= 624
    assert len(state["islands"]) == 1
    assert len(state["islands"][0]) == 4
    # The fuzzer's own cache holds every outcome: each is named by its trace.
    assert all(
        set(ind) == {"trace", "generation_born", "origin"} for ind in state["islands"][0]
    )
    assert len(state["history"]) == 1


def test_uncached_snapshot_carries_outcomes_inline_and_resumes():
    baseline, snapshots, _ = run_capturing(make_fuzzer(use_cache=False))
    assert all(ind["score"] is not None for ind in snapshots[0]["islands"][0])
    resumed = make_fuzzer(use_cache=False).run(resume_from=json.loads(json.dumps(snapshots[0])))
    assert result_fingerprint(resumed) == result_fingerprint(baseline)


def test_restore_refuses_outcomes_the_cache_does_not_hold():
    _, snapshots, _ = run_capturing(make_fuzzer())
    with pytest.raises(ValueError, match="does not hold"):
        make_fuzzer(cache=TraceCache()).run(resume_from=snapshots[0])


def test_islands_and_migration_state_roundtrip(monkeypatch):
    # A migration within the four generations, before and after the resume.
    monkeypatch.setattr(islands_module, "MIGRATION_INTERVAL", 2)
    config = dict(islands=2, population_size=4, generations=4)
    cache = TraceCache()
    baseline, snapshots, cache_dumps = run_capturing(
        make_fuzzer(cache=cache, **config), cache
    )
    resumed = resume_at(1, snapshots, cache_dumps, **config)
    assert result_fingerprint(resumed) == result_fingerprint(baseline)
    assert len(resumed.final_population) == 8


def test_archive_observations_match_after_resume():
    """Resuming with the checkpoint-time archive reproduces the final map."""
    archive_a = BehaviorArchive()
    cache = TraceCache()
    checkpoint_archives = []
    fuzzer = make_fuzzer(archive=archive_a, cache=cache)
    snapshots, cache_dumps = [], []

    def capture(state):
        snapshots.append(state)
        cache_dumps.append(cache.dump())
        checkpoint_archives.append(archive_a.to_dict())

    baseline = fuzzer.run(checkpoint=capture)
    archive_b = BehaviorArchive.from_dict(checkpoint_archives[0])
    restored_cache = TraceCache()
    restored_cache.restore(cache_dumps[0])
    resumed = make_fuzzer(archive=archive_b, cache=restored_cache).run(
        resume_from=json.loads(json.dumps(snapshots[0]))
    )
    assert result_fingerprint(resumed) == result_fingerprint(baseline)
    assert archive_b.to_dict()["cells"] == archive_a.to_dict()["cells"]


def test_restore_rejects_mismatched_config():
    _, snapshots, _ = run_capturing(make_fuzzer(seed=7))
    with pytest.raises(ValueError, match="different configuration"):
        make_fuzzer(seed=8).run(resume_from=snapshots[0])


def test_restore_rejects_mismatched_cca():
    _, snapshots, _ = run_capturing(make_fuzzer())
    other = CCFuzz(
        cca_factory("cubic"),
        config=FuzzConfig(
            mode="traffic", population_size=4, generations=3, duration=1.0, seed=7
        ),
        score_function=SCORE,
    )
    with pytest.raises(ValueError, match="different CCA"):
        other.run(resume_from=snapshots[0])


#: What ``factory_identity`` gave each BBR variant while ``Bbr`` still kept its
#: per-ACK bandwidth and state histories.
PRE_HISTORY_REMOVAL_KEYS = {"bbr": "bbr:b4f5965904a87a51", "bbr-fixed": "bbr:9354513ba3fd266a"}


@pytest.mark.parametrize("cca", sorted(PRE_HISTORY_REMOVAL_KEYS))
def test_restore_accepts_the_pre_history_removal_bbr_identity(cca):
    cache = TraceCache()
    baseline, snapshots, cache_dumps = run_capturing(
        make_fuzzer(cache=cache, cca=cca, generations=2), cache
    )
    state = json.loads(json.dumps(snapshots[0]))
    assert state["identity"]["cca_key"] != PRE_HISTORY_REMOVAL_KEYS[cca]
    state["identity"]["cca_key"] = PRE_HISTORY_REMOVAL_KEYS[cca]
    restored = TraceCache()
    restored.restore(cache_dumps[0])
    resumed = make_fuzzer(cache=restored, cca=cca, generations=2).run(resume_from=state)
    assert result_fingerprint(resumed) == result_fingerprint(baseline)

    # The table maps each old identity to its own variant only.
    (other,) = set(PRE_HISTORY_REMOVAL_KEYS) - {cca}
    for stranger in (PRE_HISTORY_REMOVAL_KEYS[other], "bbr:0000000000000000"):
        state["identity"]["cca_key"] = stranger
        with pytest.raises(ValueError, match="different CCA"):
            make_fuzzer(cca=cca, generations=2).run(resume_from=state)


def test_restore_rejects_unknown_schema():
    _, snapshots, _ = run_capturing(make_fuzzer())
    state = dict(snapshots[0])
    state["schema"] = SNAPSHOT_SCHEMA + 1
    with pytest.raises(ValueError, match="schema"):
        make_fuzzer().run(resume_from=state)
