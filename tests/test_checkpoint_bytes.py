"""Checkpoint cost is linear: exact op and byte counts, no clock.

A ``generation_checkpoint`` carries the evaluation-cache touches *since the
previous checkpoint*, so its size is bounded by one generation's work however
long the campaign has run.  (Before op-deltas every checkpoint re-journaled
the whole cache: on the serial campaign below the last checkpoint held
generations x population entries and was 4.6x the first.)  A journal in that
older full-dump layout must still resume — cold, not crash — and one whose
traces and RNG state are JSON number lists must resume bit-identically.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import pytest
from golden_utils import list_timestamps

from repro.campaign import CampaignRunner, CampaignSpec, CorpusStore, run_fleet
from repro.core.fuzzer import CCFuzz
from repro.coverage.archive import BehaviorArchive
from repro.journal import CampaignJournal
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


def run_inline_fleet(corpus_dir) -> None:
    run_fleet(pinned_spec(), str(corpus_dir), workers=0, register_attacks=False, telemetry=False)


@pytest.mark.parametrize("run", [run_serial, run_inline_fleet])
def test_checkpoint_cache_payload_is_bounded_by_one_generation(run, tmp_path):
    run(tmp_path)
    checkpoints = [
        record.data
        for record in CampaignJournal(CampaignJournal.corpus_path(str(tmp_path))).records()
        if record.type == "generation_checkpoint"
    ]
    assert len(checkpoints) == 2 * GENERATIONS
    position = {}
    for data in checkpoints:
        scope = data["scenario_id"] if "lease_epoch" in data else ""
        delta = data["cache"]
        puts = [op for op in delta["ops"] if len(op) == 3]
        assert len(puts) <= POPULATION
        assert len(delta["ops"]) <= POPULATION  # a lookup is a put or a hit, never both
        # Deltas tile each cache's op log with no gap and no overlap.
        assert delta["base"] == position.get(scope, 0)
        position[scope] = delta["base"] + len(delta["ops"])
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
    spec = CampaignSpec.from_dict(view.campaign["spec"])
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
    spec = CampaignSpec.from_dict(records[0].data["spec"])   # the campaign_start record
    fresh_dir = tmp_path / "fresh"
    fresh = _run_outputs(
        CampaignRunner(spec, CorpusStore(str(fresh_dir)), register_attacks=False, telemetry=False),
        fresh_dir,
    )
    assert resumed == fresh == LIST_TIMESTAMPS_UNINTERRUPTED
