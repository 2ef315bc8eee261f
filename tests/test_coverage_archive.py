"""MAP-Elites archive invariants: monotone elites, idempotence, round-trip."""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coverage import BehaviorArchive, BehaviorSignature, diff_archives
from repro.coverage.signature import COUNT_BUCKET_MAX, GOODPUT_BUCKETS, STALL_CLASSES
from repro.traces.trace import TrafficTrace

signatures = st.builds(
    BehaviorSignature,
    cca=st.sampled_from(["reno", "cubic"]),
    goodput_bucket=st.integers(min_value=0, max_value=GOODPUT_BUCKETS),
    loss_bucket=st.integers(min_value=0, max_value=COUNT_BUCKET_MAX),
    rto_bucket=st.integers(min_value=0, max_value=2),
    recovery_bucket=st.integers(min_value=0, max_value=2),
    stall_class=st.sampled_from(STALL_CLASSES),
    shape=st.text(alphabet="01234", min_size=8, max_size=8),
)

observations = st.lists(
    st.tuples(
        signatures,
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        st.text(alphabet="abcdef0123456789", min_size=4, max_size=8),
    ),
    min_size=1,
    max_size=40,
)


def _trace(seed: int = 0) -> TrafficTrace:
    return TrafficTrace(timestamps=[0.1 * (i + seed) % 2.0 for i in range(5)], duration=2.0)


class TestInvariants:
    @given(observations)
    @settings(max_examples=60)
    def test_elite_score_is_monotone_per_cell(self, sequence):
        archive = BehaviorArchive()
        best_seen = {}
        for signature, score, fingerprint in sequence:
            archive.observe(signature, score, fingerprint)
            cell = signature.cell_key()
            best_seen[cell] = max(best_seen.get(cell, score), score)
            elite = archive.get(cell)
            assert elite is not None
            # The recorded elite never regresses and always matches the best
            # comparable score seen so far (single objective here).
            assert elite.score == best_seen[cell]

    @given(observations)
    @settings(max_examples=60)
    def test_observation_accounting(self, sequence):
        archive = BehaviorArchive()
        for signature, score, fingerprint in sequence:
            archive.observe(signature, score, fingerprint)
        assert archive.observations == len(sequence)
        assert archive.new_cells == len(archive)
        assert sum(elite.visits for elite in archive.cells()) == len(sequence)

    @given(signatures, st.floats(min_value=-10, max_value=10, allow_nan=False))
    def test_insert_idempotent(self, signature, score):
        archive = BehaviorArchive()
        first = archive.observe(signature, score, "fp", trace=_trace())
        assert first == "new"
        elite_before = archive.get(signature.cell_key()).to_dict()
        second = archive.observe(signature, score, "fp", trace=_trace())
        assert second == "visit"
        elite_after = archive.get(signature.cell_key()).to_dict()
        # Identical re-observation only bumps the visit counter.
        elite_before["visits"] += 1
        assert elite_after == elite_before

    def test_cross_objective_scores_never_displace(self):
        archive = BehaviorArchive()
        signature = BehaviorSignature("reno", 1, 1, 0, 0, "none", "00000000")
        archive.observe(signature, 1.0, "fp-a", provenance={"objective": "throughput"})
        outcome = archive.observe(signature, 99.0, "fp-b", provenance={"objective": "delay"})
        assert outcome == "visit"
        assert archive.get(signature.cell_key()).trace_fingerprint == "fp-a"
        same = archive.observe(signature, 2.0, "fp-c", provenance={"objective": "throughput"})
        assert same == "improved"
        assert archive.get(signature.cell_key()).trace_fingerprint == "fp-c"


class TestSerialization:
    @given(sequence=observations)
    @settings(max_examples=30)
    def test_save_load_round_trip(self, tmp_path_factory, sequence):
        archive = BehaviorArchive()
        for index, (signature, score, fingerprint) in enumerate(sequence):
            archive.observe(signature, score, fingerprint, trace=_trace(index % 3))
        path = str(tmp_path_factory.mktemp("archive") / "behavior_map.json")
        archive.save(path)
        loaded = BehaviorArchive.load(path)
        assert loaded.to_dict() == archive.to_dict()
        # And the serialized form is valid, schema-stamped JSON.
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["schema"] == 1

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "behavior_map.json"
        path.write_text(json.dumps({"schema": 99, "cells": {}}))
        with pytest.raises(ValueError, match="schema"):
            BehaviorArchive.load(str(path))

    def test_merge_preserves_monotonicity(self):
        signature = BehaviorSignature("reno", 1, 1, 0, 0, "none", "00000000")
        a = BehaviorArchive()
        b = BehaviorArchive()
        a.observe(signature, 1.0, "fp-low")
        b.observe(signature, 5.0, "fp-high")
        a.merge(b)
        assert a.get(signature.cell_key()).score == 5.0
        a.merge(b)  # merging again never regresses
        assert a.get(signature.cell_key()).score == 5.0

    def test_merge_preserves_occupancy_counters(self):
        """Merging folds visits/observations in — it is not a re-observation."""
        crowded = BehaviorSignature("reno", 1, 1, 0, 0, "none", "00000000")
        fresh = BehaviorSignature("reno", 2, 1, 0, 0, "none", "00000000")
        a = BehaviorArchive()
        b = BehaviorArchive()
        a.observe(crowded, 1.0, "fp")
        for _ in range(4):
            b.observe(crowded, 0.5, "fp")
        b.observe(fresh, 0.5, "fp")
        a.merge(b)
        # 1 visit in a + 4 in b; the fresh cell arrives with its 1 visit.
        assert a.visits(crowded.cell_key()) == 5
        assert a.visits(fresh.cell_key()) == 1
        assert a.observations == 6
        # rarity reflects the folded occupancy, not a reset-to-1 count.
        assert a.rarity(crowded.cell_key()) < a.rarity(fresh.cell_key())


class TestQueries:
    def test_rarity_decays_with_visits(self):
        archive = BehaviorArchive()
        signature = BehaviorSignature("reno", 1, 1, 0, 0, "none", "00000000")
        cell = signature.cell_key()
        assert archive.rarity(cell) == 1.0
        archive.observe(signature, 0.0, "fp")
        first = archive.rarity(cell)
        for _ in range(8):
            archive.observe(signature, 0.0, "fp")
        assert archive.rarity(cell) < first <= 1.0

    def test_least_visited_orders_deterministically(self):
        archive = BehaviorArchive()
        crowded = BehaviorSignature("reno", 1, 1, 0, 0, "none", "00000000")
        sparse = BehaviorSignature("reno", 2, 1, 0, 0, "none", "00000000")
        for _ in range(5):
            archive.observe(crowded, 0.0, "fp-a")
        archive.observe(sparse, 0.0, "fp-b")
        least = archive.least_visited(2)
        assert [elite.cell for elite in least] == [sparse.cell_key(), crowded.cell_key()]

    def test_diff_archives(self):
        only_a = BehaviorSignature("reno", 1, 1, 0, 0, "none", "00000000")
        shared = BehaviorSignature("reno", 2, 1, 0, 0, "none", "00000000")
        only_b = BehaviorSignature("reno", 3, 1, 0, 0, "none", "00000000")
        a = BehaviorArchive()
        b = BehaviorArchive()
        a.observe(only_a, 1.0, "fp")
        a.observe(shared, 1.0, "fp")
        b.observe(shared, 3.0, "fp")
        b.observe(only_b, 1.0, "fp")
        delta = diff_archives(a, b)
        assert delta["only_a"] == [only_a.cell_key()]
        assert delta["only_b"] == [only_b.cell_key()]
        assert delta["shared"] == [shared.cell_key()]
        assert delta["score_deltas"] == [(shared.cell_key(), 2.0)]


# ---------------------------------------------------------------------- #
# delta_since: touch stamps against a digest-diff oracle
# ---------------------------------------------------------------------- #


def reference_delta(archive: BehaviorArchive, index: dict):
    """The digest-diff ``delta_since`` the touch stamps replaced, kept as the oracle.

    Serialises and hashes every cell and reports those whose digest differs
    from ``index`` (cell -> digest of a previous call); O(cells) per call.
    """
    changed, new_index = {}, {}
    for elite in archive.cells():
        payload = elite.to_dict()
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        digest = hashlib.blake2b(canonical.encode("utf-8"), digest_size=8).hexdigest()
        new_index[elite.cell] = digest
        if index.get(elite.cell) != digest:
            changed[elite.cell] = payload
    return changed, new_index


class DeltaConsumer:
    """One ``delta_since`` reader: its mark, the oracle's index, and a mirror
    archive built only from the baseline it started at and the deltas it saw."""

    def __init__(self, archive: BehaviorArchive) -> None:
        self.rebase(archive)

    def rebase(self, archive: BehaviorArchive) -> None:
        self.mark = archive.mark
        _, self.index = reference_delta(archive, {})
        self.mirror = archive.snapshot()

    def drain(self, archive: BehaviorArchive) -> None:
        changed, self.mark = archive.delta_since(self.mark)
        expected, self.index = reference_delta(archive, self.index)
        assert changed == expected
        assert list(changed) == list(expected)          # same (sorted) cell order
        self.mirror.apply_delta(changed, archive.counters())
        assert self.mirror.to_dict() == archive.to_dict()
        assert archive.delta_since(self.mark) == ({}, self.mark)


# Few cells, two objectives: revisits, displacements and cross-objective
# visits that only move ``visits`` all happen within a short sequence.
pooled_observations = st.tuples(
    st.builds(
        BehaviorSignature,
        cca=st.sampled_from(["reno", "cubic"]),
        goodput_bucket=st.integers(min_value=0, max_value=2),
        loss_bucket=st.just(0),
        rto_bucket=st.just(0),
        recovery_bucket=st.just(0),
        stall_class=st.just(STALL_CLASSES[0]),
        shape=st.just("00000000"),
    ),
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    st.integers(min_value=0, max_value=3),              # trace seed (0: no trace)
    st.sampled_from(["throughput", "delay"]),
)

delta_ops = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), pooled_observations),
        st.tuples(st.just("merge"), st.lists(pooled_observations, max_size=4), st.booleans()),
        st.tuples(st.just("apply_delta"), st.lists(pooled_observations, min_size=1, max_size=4)),
        st.tuples(st.just("snapshot")),
        st.tuples(st.just("save_load")),
        st.tuples(st.just("delta"), st.integers(min_value=0, max_value=1)),
    ),
    max_size=30,
)


def _observe(archive: BehaviorArchive, observation) -> None:
    signature, score, trace_seed, objective = observation
    trace = _trace(trace_seed) if trace_seed else None
    archive.observe(
        signature,
        score,
        trace.fingerprint() if trace is not None else f"fp-{score}",
        trace=trace,
        provenance={"objective": objective},
    )


class TestDeltaSince:
    @given(delta_ops)
    @settings(max_examples=150, deadline=None)
    def test_stamped_deltas_equal_the_digest_diff_for_every_consumer(
        self, tmp_path_factory, ops
    ):
        archive = BehaviorArchive()
        consumers = [DeltaConsumer(archive), DeltaConsumer(archive)]
        for op in ops:
            kind = op[0]
            if kind == "observe":
                _observe(archive, op[1])
            elif kind == "merge":
                # A scenario's private archive: seeded from a snapshot of this
                # one (merged back baseline-aware) or built from nothing.
                baseline = archive.snapshot() if op[2] else None
                other = archive.snapshot() if op[2] else BehaviorArchive()
                for observation in op[1]:
                    _observe(other, observation)
                archive.merge(other, baseline=baseline)
            elif kind == "apply_delta":
                # Journaled deltas only ever move a cell forward.
                donor = archive.snapshot()
                donor_mark = donor.mark
                for observation in op[1]:
                    _observe(donor, observation)
                archive.apply_delta(donor.delta_since(donor_mark)[0], donor.counters())
            elif kind in ("snapshot", "save_load"):
                # Both are pure reads of the source; the copy starts a new
                # stamp sequence, so readers catch up first and re-baseline
                # on it, the way a resumed campaign does.
                for consumer in consumers:
                    consumer.drain(archive)
                if kind == "snapshot":
                    copy = archive.snapshot()
                else:
                    path = str(tmp_path_factory.mktemp("delta") / "behavior_map.json")
                    copy = BehaviorArchive.load(archive.save(path))
                assert archive.delta_since(consumers[0].mark)[0] == {}
                assert copy.to_dict() == archive.to_dict()
                assert copy.delta_since(0)[0] == copy.to_dict()["cells"]
                archive = copy
                for consumer in consumers:
                    consumer.rebase(archive)
            elif kind == "delta":
                consumers[op[1]].drain(archive)
        for consumer in consumers:
            consumer.drain(archive)
