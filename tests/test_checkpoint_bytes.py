"""Checkpoint cost is linear: exact op and byte counts, no clock.

A ``generation_checkpoint`` carries the evaluation-cache touches *since the
previous checkpoint*, so its size is bounded by one generation's work however
long the campaign has run.  (Before op-deltas every checkpoint re-journaled
the whole cache: on the serial campaign below the last checkpoint held
generations x population entries and was 4.6x the first.)  A journal in that
older full-dump layout must still resume — cold, not crash — and one whose
traces and RNG state are JSON number lists must resume bit-identically.

Nor does a checkpoint re-journal what the journal holds: an individual names
its outcome by its trace (the cache op log carries it), the history goes as
its tail, which replay folds back into the whole list at any kill point, and
each trace is carried once per file, by the first record that names it.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile

import pytest
from golden_utils import list_timestamps
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.campaign import CampaignRunner, CampaignSpec, CorpusStore
from repro.core.fuzzer import CCFuzz
from repro.coverage.archive import BehaviorArchive
from repro.exec.cache import TraceCache
from repro.journal import CampaignJournal, JournalRecord
from repro.journal.codec import inflate, named_digests
from repro.journal.events import canonical_json, make_record
from repro.scoring.objectives import make_score_function
from repro.tcp.cca import cca_factory

POPULATION = 8
GENERATIONS = 6
LEGACY_JOURNAL = os.path.join(os.path.dirname(__file__), "legacy_full_dump_journal.jsonl")
LIST_TIMESTAMPS_JOURNAL = os.path.join(
    os.path.dirname(__file__), "legacy_list_timestamps_journal.jsonl"
)


def pinned_spec(**overrides) -> CampaignSpec:
    payload = {
        "name": "checkpoint-bytes",
        "ccas": ["reno", "cubic"],
        "modes": ["traffic"],
        "objectives": ["throughput"],
        "conditions": [{"name": "base"}],
        "budget": {"population_size": POPULATION, "generations": GENERATIONS, "duration": 0.12},
        "seed": 7,
        "seed_limit": 2,
    }
    payload.update(overrides)
    return CampaignSpec.from_dict(payload)


def run_serial(corpus_dir) -> None:
    CampaignRunner(
        pinned_spec(), CorpusStore(str(corpus_dir)), register_attacks=False, telemetry=False
    ).run()


@pytest.mark.parametrize("run", [run_serial])
def test_checkpoint_cache_payload_is_bounded_by_one_generation(run, tmp_path):
    run(tmp_path)
    checkpoints = [
        record.data
        for record in CampaignJournal(CampaignJournal.corpus_path(str(tmp_path))).records()
        if record.type == "generation_checkpoint"
    ]
    assert len(checkpoints) == 2 * GENERATIONS
    position = 0
    for data in checkpoints:
        delta = data["cache"]
        puts = [op for op in delta["ops"] if len(op) == 3]
        assert len(puts) <= POPULATION
        assert len(delta["ops"]) <= POPULATION  # a lookup is a put or a hit, never both
        # Deltas tile the cache's op log with no gap and no overlap.
        assert delta["base"] == position
        position = delta["base"] + len(delta["ops"])
    for scenario in pinned_spec().expand():
        sizes = [
            len(json.dumps(data["cache"]))
            for data in checkpoints
            if data["scenario_id"] == scenario.scenario_id
        ]
        assert sizes[-1] <= 1.5 * sizes[0], sizes


def test_parent_layout_journal_resumes_cold(tmp_path):
    """A journal whose checkpoints carry full cache dumps (the layout before
    op-deltas; SIGKILLed after generation 1 of 3) resumes with a cold cache and
    finds what an uninterrupted run finds."""
    corpus_dir = tmp_path / "legacy"
    corpus_dir.mkdir()
    shutil.copy(LEGACY_JOURNAL, CampaignJournal.corpus_path(str(corpus_dir)))
    view = CampaignJournal(CampaignJournal.corpus_path(str(corpus_dir))).replay()
    assert "entries" in view.cache_state and "ops" not in view.cache_state
    # Its fuzzer snapshots also still carry the fault knobs FuzzConfig has since lost.
    inflight = list(view.pending_checkpoints().values())
    assert inflight and all("job_timeout" in c["fuzzer"]["config"] for c in inflight)
    # They were also written before ``record_series`` left the simulation
    # identity: the recorded fingerprint is not today's, and resume accepts it
    # through the one compatibility rule, ``legacy_fingerprint()``.
    spec = CampaignSpec.from_journal(view.campaign["spec"])
    scenarios = {scenario.scenario_id: scenario for scenario in spec.expand()}
    for scenario_id, checkpoint in view.pending_checkpoints().items():
        scenario = scenarios[scenario_id]
        snapshot = json.loads(json.dumps(checkpoint["fuzzer"]))
        recorded = snapshot["identity"]["sim_fingerprint"]
        assert recorded != scenario.sim_config().fingerprint()
        assert recorded == scenario.sim_config().legacy_fingerprint()
        fuzzer = CCFuzz(
            cca_factory(scenario.cca),
            config=scenario.fuzz_config(),
            score_function=make_score_function(scenario.objective, scenario.mode),
        )
        fuzzer._restore(snapshot)
        # The rule admits that one fingerprint, not any stale one.
        snapshot["identity"]["sim_fingerprint"] = recorded[::-1]
        with pytest.raises(ValueError, match="different CCA / simulation"):
            fuzzer._restore(snapshot)
    messages = []
    resumed = CampaignRunner.resume(
        str(corpus_dir), progress=messages.append, telemetry=False
    ).run()
    assert any("resuming with a cold cache" in message for message in messages)

    fresh = CampaignRunner(
        spec, CorpusStore(str(tmp_path / "fresh")), register_attacks=False, telemetry=False
    ).run()
    assert [o.best_fingerprint for o in resumed.outcomes] == [
        o.best_fingerprint for o in fresh.outcomes
    ]
    assert [o.best_fitness for o in resumed.outcomes] == [o.best_fitness for o in fresh.outcomes]


#: What the commit before packed timestamps wrote for the fixture's spec, run
#: uninterrupted: digest, corpus fingerprints and the behavior map's hash
#: (``list_timestamps`` spelling, sorted-key JSON, sha256, 16 hex digits).
LIST_TIMESTAMPS_UNINTERRUPTED = {
    "digest": "292f987e2a4ee31357cd7ef978133081",
    "fingerprints": [
        "454d79f1a61a2c579123dbe77fb1172a", "bc1d1451d8ae629cff2d3939b2d25c2b",
        "e19ad15f8d137fa49fc8928505b1b840", "f38c1ea6d124fce6411b19aa82be7850",
    ],
    "behavior_map": "908812961b32b99e",
}


def _run_outputs(runner: CampaignRunner, corpus_dir) -> dict:
    result = runner.run()
    with open(BehaviorArchive.corpus_path(str(corpus_dir)), "r", encoding="utf-8") as handle:
        behavior_map = list_timestamps(json.load(handle))
    return {
        "digest": result.deterministic_digest(),
        "fingerprints": sorted(runner.corpus.fingerprints()),
        "behavior_map": hashlib.sha256(
            json.dumps(behavior_map, sort_keys=True).encode("utf-8")
        ).hexdigest()[:16],
    }


def test_list_timestamps_journal_resumes_to_the_uninterrupted_run(tmp_path):
    """A journal written while traces and the RNG state were JSON number lists
    (a link scenario done, a traffic scenario SIGKILLed after its generation-0
    checkpoint) resumes to what an uninterrupted run gives, then and now."""
    corpus_dir = tmp_path / "legacy"
    corpus_dir.mkdir()
    shutil.copy(LIST_TIMESTAMPS_JOURNAL, CampaignJournal.corpus_path(str(corpus_dir)))
    records = CampaignJournal(CampaignJournal.corpus_path(str(corpus_dir))).records()
    checkpoints = [r.data["fuzzer"] for r in records if r.type == "generation_checkpoint"]
    inserts = [r.data["entry"]["trace"] for r in records if r.type == "corpus_insert"]
    assert checkpoints and inserts
    assert all(isinstance(c["rng_state"][1], list) for c in checkpoints)
    traces = [i["trace"] for c in checkpoints for island in c["islands"] for i in island] + inserts
    assert {t["type"] for t in traces} == {"LinkTrace", "TrafficTrace"}
    assert all("timestamps" in t and "timestamps_f64le" not in t for t in traces)

    resumed = _run_outputs(CampaignRunner.resume(str(corpus_dir), telemetry=False), corpus_dir)
    spec = CampaignSpec.from_journal(records[0].data["spec"])   # the campaign_start record
    fresh_dir = tmp_path / "fresh"
    fresh = _run_outputs(
        CampaignRunner(spec, CorpusStore(str(fresh_dir)), register_attacks=False, telemetry=False),
        fresh_dir,
    )
    assert resumed == fresh == LIST_TIMESTAMPS_UNINTERRUPTED


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
    shutil.copy(LEGACY_THREAD_MODE_JOURNAL, journal_path)
    before = CampaignJournal(journal_path).replay()
    assert before.campaign["max_parallel"] == 2
    assert before.campaign["spec"]["lease_ttl"] == 30.0     # the older spec's key
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
    # Its digest, as the code that could still run the fleet resumed it.
    assert result.deterministic_digest() == "32204c4eea46f77feb4f2600870a51f4"


# ---------------------------------------------------------------------- #
# Checkpoints name what the journal already holds
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("run", [run_serial])
def test_checkpoints_journal_outcomes_by_reference_and_history_as_its_tail(run, tmp_path):
    """With a cache, a checkpoint individual is its trace, birth and origin:
    the score and summary are the cache put's, which the op log journals
    already.  The history is the one generation the checkpoint closes."""
    run(tmp_path)
    records = CampaignJournal(CampaignJournal.corpus_path(str(tmp_path))).records()
    snapshots = [r.data["fuzzer"] for r in records if r.type == "generation_checkpoint"]
    assert len(snapshots) == 2 * GENERATIONS
    individuals = [i for s in snapshots for island in s["islands"] for i in island]
    assert len(individuals) == 2 * GENERATIONS * POPULATION
    assert all(set(i) == {"trace", "generation_born", "origin"} for i in individuals)
    assert [[h["generation"] for h in s["history"]] for s in snapshots] == [
        [s["generation"]] for s in snapshots
    ]


#: Each record type's journal bytes over what it would take with every trace
#: inline, on the pinned campaign (measured 0.958 / 0.727 / 0.590): a
#: checkpoint's population is mostly
#: new traces, a behavior delta's elites and a harvest's inserts mostly not.
INLINE_SHARE_BOUNDS = {"generation_checkpoint": 0.97, "behavior_delta": 0.82, "corpus_insert": 0.6}


@pytest.mark.parametrize("run", [run_serial])
def test_each_trace_is_journaled_once_per_file(run, tmp_path):
    """Every trace a record names is carried by exactly one record's table,
    so the tables hold each distinct trace's bytes once (plus its digest as
    the key), and each record type is bounded against its inline size."""
    run(tmp_path)
    records = CampaignJournal(CampaignJournal.corpus_path(str(tmp_path))).records()
    traces: dict = {}
    sizes: dict = {}
    for record in records:
        traces.update(record.traces)
        inline = make_record(record.seq, record.type, inflate(record.type, record.data, traces))
        size = sizes.setdefault(record.type, [0, 0])
        size[0] += len(record.to_line())
        size[1] += len(inline.to_line())
    named = {d for r in records for d in named_digests(r.type, r.data)}
    assert sum(len(r.traces) for r in records) == len(named) == len(traces)
    tables = [r.traces_json() for r in records if r.traces]
    # ``{"<digest>":<trace>,...}``: 32 hex digits, two quotes, a colon, a comma.
    assert sum(map(len, tables)) == len(tables) + sum(
        36 + len(canonical_json(trace)) for trace in traces.values()
    )
    for name, bound in INLINE_SHARE_BOUNDS.items():
        written, inline = sizes[name]
        assert written <= bound * inline, (name, written / inline)


def _journal_lines(corpus_dir) -> list:
    with open(CampaignJournal.corpus_path(str(corpus_dir)), "rb") as handle:
        return handle.read().splitlines(keepends=True)


def _killed_copy(lines, count: int, corpus_dir) -> str:
    """A corpus directory holding only the first ``count`` journal records:
    what a SIGKILL right after that append leaves (the insert WAL rebuilds
    the corpus on resume)."""
    os.makedirs(corpus_dir)
    with open(CampaignJournal.corpus_path(str(corpus_dir)), "wb") as handle:
        handle.write(b"".join(lines[:count]))
    return str(corpus_dir)


def _resume_serial(corpus_dir):
    return CampaignRunner.resume(corpus_dir, telemetry=False).run()


def _records(lines) -> list:
    return [JournalRecord.from_line(line.decode()) for line in lines]


FIRST = pinned_spec().expand()[0].scenario_id


def _after_checkpoint_2(lines) -> int:
    """Records a kill right after the first scenario's generation-2 checkpoint leaves."""
    return next(
        index + 1
        for index, record in enumerate(_records(lines))
        if record.type == "generation_checkpoint"
        and record.data["scenario_id"] == FIRST and record.data["generation"] == 2
    )


def _tails(lines) -> dict:
    """scenario -> the history its uninterrupted run journaled, tail by tail."""
    histories: dict = {}
    for record in _records(lines):
        if record.type == "generation_checkpoint":
            histories.setdefault(record.data["scenario_id"], []).extend(
                record.data["fuzzer"]["history"]
            )
    return histories


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """The pinned campaign run to the end."""
    root = tmp_path_factory.mktemp("uninterrupted")
    serial = CampaignRunner(
        pinned_spec(), CorpusStore(str(root / "serial")),
        register_attacks=False, telemetry=False,
    ).run()
    lines = _journal_lines(root / "serial")
    return {"serial": (lines, serial.deterministic_digest(), _tails(lines), _resume_serial)}


@pytest.mark.parametrize("kind", ["serial"])
@given(at=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_kill_point_folds_the_full_history_and_resumes_bit_identically(
    kind, at, uninterrupted
):
    lines, digest, histories, resume = uninterrupted[kind]
    count = 1 + int(at * (len(lines) - 1))
    with tempfile.TemporaryDirectory() as tmp:
        corpus_dir = _killed_copy(lines, count, os.path.join(tmp, "corpus"))
        view = CampaignJournal(CampaignJournal.corpus_path(corpus_dir)).replay()
        for scenario_id, checkpoint in view.pending_checkpoints().items():
            generation = checkpoint["generation"]
            assert checkpoint["fuzzer"]["history"] == histories[scenario_id][: generation + 1]
        compacted = CampaignJournal(CampaignJournal.corpus_path(corpus_dir))
        if compacted.compact() is not None:
            assert compacted.replay().pending_checkpoints() == view.pending_checkpoints()
        assert resume(corpus_dir).deterministic_digest() == digest


@pytest.mark.parametrize("stale", ["cache-schema", "small-cache"])
def test_a_checkpoint_the_restored_cache_cannot_serve_restarts_its_scenario(stale, tmp_path):
    """A stale cache dump (or a cache too small for the population) cannot
    give back the outcomes a checkpoint names by reference: resume refuses
    that checkpoint and reruns the scenario from its seeds, with a warning."""
    uninterrupted = CampaignRunner(
        pinned_spec(), CorpusStore(str(tmp_path / "uninterrupted")),
        register_attacks=False, telemetry=False,
    ).run()
    lines = _journal_lines(tmp_path / "uninterrupted")
    corpus_dir = str(tmp_path / "killed")
    os.makedirs(corpus_dir)
    traces: dict = {}
    with CampaignJournal(CampaignJournal.corpus_path(corpus_dir), fsync=False) as journal:
        for record in _records(lines[: _after_checkpoint_2(lines)]):
            if stale == "cache-schema" and "cache" in record.data:
                record.data["cache"]["schema"] = "o1"
            traces.update(record.traces)
            journal.append(record.type, inflate(record.type, record.data, traces))
    messages = []
    resumed = CampaignRunner.resume(
        corpus_dir,
        cache=TraceCache(max_entries=2) if stale == "small-cache" else None,
        progress=messages.append,
        telemetry=False,
    ).run()
    assert f"[{FIRST}] journaled cache dump is stale; restarting the scenario from its seeds" in messages
    assert [o.best_fingerprint for o in resumed.outcomes] == [
        o.best_fingerprint for o in uninterrupted.outcomes
    ]
    if stale == "cache-schema":
        # A cold cache and a scenario run from its seeds: the uninterrupted run.
        assert resumed.deterministic_digest() == uninterrupted.deterministic_digest()
