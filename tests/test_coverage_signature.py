"""Behavior-signature extraction: determinism, bounds and serialization.

The signature is the foundation of the coverage subsystem: if the same
``(trace, CCA, config)`` ever produced two different signatures — across
processes, backends or repeated runs — the MAP-Elites archive would count
phantom cells and novelty guidance would chase noise.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coverage import (
    GOODPUT_BUCKETS,
    STALL_CLASSES,
    BehaviorSignature,
    count_bucket,
    extract_signature,
    signature_from_summary,
    stall_class,
)
from repro.coverage.signature import COUNT_BUCKET_MAX, SHAPE_LEVELS, SHAPE_WINDOWS
from repro.exec import (
    EvaluationJob,
    ProcessPoolBackend,
    SerialBackend,
    evaluate_job,
)
from repro.netsim.simulation import SimulationConfig, run_simulation
from repro.scoring.objectives import make_score_function
from repro.tcp.cca import cca_factory
from repro.traces.generator import TrafficTraceGenerator


class TestBuckets:
    @given(st.integers(min_value=-5, max_value=10_000))
    def test_count_bucket_bounded(self, count):
        assert 0 <= count_bucket(count) <= COUNT_BUCKET_MAX

    @given(st.integers(min_value=0, max_value=5_000), st.integers(min_value=0, max_value=5_000))
    def test_count_bucket_monotone(self, a, b):
        if a <= b:
            assert count_bucket(a) <= count_bucket(b)

    def test_count_bucket_log2_boundaries(self):
        assert [count_bucket(n) for n in (0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 1000)] == [
            0, 1, 2, 3, 3, 4, 4, 5, 5, 6, 6,
        ]

    @given(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        st.integers(min_value=0, max_value=100),
    )
    def test_stall_class_in_vocabulary(self, gap, duration, delivered):
        assert stall_class(gap, duration, delivered) in STALL_CLASSES

    def test_stall_class_dead_only_without_delivery(self):
        assert stall_class(5.0, 5.0, 0) == "dead"
        assert stall_class(5.0, 5.0, 1) != "dead"


def _simulate(seed: int, record_series: bool = False, cca: str = "cubic"):
    trace = TrafficTraceGenerator(duration=2.0, max_packets=200, seed=seed).generate()
    config = SimulationConfig(duration=2.0, record_series=record_series)
    result = run_simulation(cca_factory(cca), config, cross_traffic_times=trace.timestamps)
    return trace, config, result


class TestExtraction:
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_extraction_is_deterministic(self, seed):
        _, _, first = _simulate(seed)
        _, _, second = _simulate(seed)
        assert extract_signature(first) == extract_signature(second)

    def test_fields_are_bounded(self):
        _, _, result = _simulate(3)
        signature = extract_signature(result)
        assert 0 <= signature.goodput_bucket <= GOODPUT_BUCKETS
        assert 0 <= signature.loss_bucket <= COUNT_BUCKET_MAX
        assert 0 <= signature.rto_bucket <= COUNT_BUCKET_MAX
        assert 0 <= signature.recovery_bucket <= COUNT_BUCKET_MAX
        assert signature.stall_class in STALL_CLASSES
        assert len(signature.shape) == SHAPE_WINDOWS
        assert all(digit in "0123456789"[:SHAPE_LEVELS] for digit in signature.shape)
        assert signature.cca == "cubic"

    def test_works_without_series_recording(self):
        """record_series=False (the fuzzing default) must be enough — and
        recording the series must not change the signature."""
        _, _, lite = _simulate(5, record_series=False)
        signature = extract_signature(lite)
        assert signature.cell_key().startswith("cubic/")
        _, _, full = _simulate(5, record_series=True)
        assert full.sender_stats.cwnd_series
        assert extract_signature(full) == signature
        # The lite result exposes the episode counters the signature needs.
        episodes = lite.episode_summary()
        assert set(episodes) >= {
            "loss_events", "rto_events", "recovery_entries", "recovery_exits",
            "max_egress_gap", "delivered", "state_transitions",
        }

    def test_descriptor_projects_cell_key(self):
        _, _, result = _simulate(1)
        signature = extract_signature(result)
        assert signature.cell_key() == "/".join(signature.descriptor())
        assert signature.fingerprint() == extract_signature(result).fingerprint()

    @pytest.mark.parametrize("cca", ["reno", "cubic", "bbr"])
    def test_uniform_across_ccas(self, cca):
        """Every registered CCA yields a complete signature (no special cases)."""
        _, _, result = _simulate(2, cca=cca)
        signature = extract_signature(result)
        assert signature.cca == cca
        assert signature.stall_class in STALL_CLASSES


signatures = st.builds(
    BehaviorSignature,
    cca=st.sampled_from(["reno", "cubic", "bbr"]),
    goodput_bucket=st.integers(min_value=0, max_value=GOODPUT_BUCKETS),
    loss_bucket=st.integers(min_value=0, max_value=COUNT_BUCKET_MAX),
    rto_bucket=st.integers(min_value=0, max_value=COUNT_BUCKET_MAX),
    recovery_bucket=st.integers(min_value=0, max_value=COUNT_BUCKET_MAX),
    stall_class=st.sampled_from(STALL_CLASSES),
    shape=st.text(alphabet="01234", min_size=SHAPE_WINDOWS, max_size=SHAPE_WINDOWS),
    transitions=st.lists(
        st.tuples(st.sampled_from(["a>b", "b>c", "c>a"]), st.integers(0, COUNT_BUCKET_MAX)),
        unique_by=lambda pair: pair[0],
        max_size=3,
    ).map(lambda pairs: tuple(sorted(pairs))),
)


class TestSerialization:
    @given(signatures)
    @settings(max_examples=50)
    def test_round_trip(self, signature):
        assert BehaviorSignature.from_dict(signature.to_dict()) == signature

    @given(signatures)
    @settings(max_examples=50)
    def test_summary_recovery(self, signature):
        assert signature_from_summary({"behavior_signature": signature.to_dict()}) == signature

    def test_summary_recovery_tolerates_absence(self):
        assert signature_from_summary({}) is None
        assert signature_from_summary({"behavior_signature": "garbage"}) is None
        assert signature_from_summary({"behavior_signature": {"cca": "reno"}}) is None


class TestBackendDeterminism:
    """Same job => bit-identical signature on every evaluation backend."""

    def _job(self, seed: int) -> EvaluationJob:
        trace = TrafficTraceGenerator(duration=1.5, max_packets=120, seed=seed).generate()
        return EvaluationJob(
            cca_factory("cubic"),
            SimulationConfig(duration=1.5, record_series=False),
            trace,
            make_score_function("throughput", "traffic"),
        )

    def test_signature_identical_across_backends(self):
        jobs = [self._job(seed) for seed in (1, 2, 3)]
        serial = SerialBackend().evaluate_batch(jobs)
        with ProcessPoolBackend(workers=2) as process_backend:
            processed = process_backend.evaluate_batch(jobs)
        for (_, a), (_, b) in zip(serial, processed):
            assert a["behavior_signature"] == b["behavior_signature"]

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_repeated_evaluation_is_stable(self, seed):
        job = self._job(seed)
        _, first = evaluate_job(job)
        _, second = evaluate_job(job)
        assert first["behavior_signature"] == second["behavior_signature"]
