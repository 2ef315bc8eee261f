"""Property-based tests for trace operators and fingerprints.

The genetic operators must uphold each mode's structural invariants for
*every* input, not just the generator's outputs — mutation and crossover feed
their own outputs back as inputs for hundreds of generations, so any
invariant they fail to preserve decays over a run.  Hypothesis searches for
the failing inputs directly.
"""

from __future__ import annotations

import json
import random
import struct

from hypothesis import given, settings, strategies as st

from repro.traces import (
    LinkTrace,
    LinkTraceGenerator,
    LossTrace,
    LossTraceGenerator,
    PacketTrace,
    TrafficTrace,
    TrafficTraceGenerator,
)
from repro.traces.crossover import (
    CROSSOVER_OPERATORS,
    crossover_loss_traces,
    crossover_traces,
    crossover_traffic_traces,
)
from repro.traces.mutation import (
    mutate_link_trace,
    mutate_loss_trace,
    mutate_trace,
    mutate_traffic_trace,
)
from repro.traces.trace import MODES, pack_le, unpack_le

DURATION = 2.0

#: Timestamps anywhere in [0, DURATION], including exact bounds and duplicates.
timestamps_st = st.lists(
    st.floats(min_value=0.0, max_value=DURATION, allow_nan=False), min_size=0, max_size=40
)
seeds_st = st.integers(min_value=0, max_value=2**32 - 1)


def link_trace(timestamps):
    return LinkTrace(timestamps=timestamps, duration=DURATION)


def traffic_trace(timestamps, max_packets=60):
    return TrafficTrace(timestamps=timestamps, duration=DURATION, max_packets=max_packets)


def loss_trace(timestamps):
    return LossTrace(timestamps=timestamps, duration=DURATION)


def assert_well_formed(trace):
    assert trace.timestamps == sorted(trace.timestamps)
    assert all(0.0 <= t <= trace.duration for t in trace.timestamps)


class TestMutationInvariants:
    @given(timestamps=timestamps_st, seed=seeds_st)
    @settings(max_examples=60, deadline=None)
    def test_link_mutation_preserves_packet_budget(self, timestamps, seed):
        trace = link_trace(timestamps)
        mutated = mutate_link_trace(trace, random.Random(seed))
        assert_well_formed(mutated)
        # The link invariant (section 3.2): fixed packet count, hence fixed
        # average bandwidth, across the whole search.
        assert mutated.packet_count == trace.packet_count
        assert isinstance(mutated, LinkTrace)

    @given(timestamps=timestamps_st, max_packets=st.integers(40, 80), seed=seeds_st)
    @settings(max_examples=60, deadline=None)
    def test_traffic_mutation_respects_budget(self, timestamps, max_packets, seed):
        trace = traffic_trace(timestamps, max_packets=max_packets)
        mutated = mutate_traffic_trace(trace, random.Random(seed))
        assert_well_formed(mutated)
        assert mutated.packet_count <= trace.max_packets
        assert mutated.max_packets == trace.max_packets

    @given(timestamps=timestamps_st, max_losses=st.integers(1, 50), seed=seeds_st)
    @settings(max_examples=60, deadline=None)
    def test_loss_mutation_respects_max_losses(self, timestamps, max_losses, seed):
        trace = loss_trace(timestamps[:max_losses])
        mutated = mutate_loss_trace(trace, random.Random(seed), max_losses=max_losses)
        assert_well_formed(mutated)
        assert mutated.packet_count <= max_losses


class TestCrossoverInvariants:
    @given(left=timestamps_st, right=timestamps_st, seed=seeds_st)
    @settings(max_examples=60, deadline=None)
    def test_traffic_crossover_respects_budget(self, left, right, seed):
        parent_a = traffic_trace(left, max_packets=60)
        parent_b = traffic_trace(right, max_packets=50)
        child = crossover_traffic_traces(parent_a, parent_b, random.Random(seed))
        assert_well_formed(child)
        assert child.packet_count <= max(parent_a.max_packets, parent_b.max_packets)

    @given(left=timestamps_st, right=timestamps_st, seed=seeds_st)
    @settings(max_examples=60, deadline=None)
    def test_loss_crossover_stays_in_bounds(self, left, right, seed):
        child = crossover_loss_traces(loss_trace(left), loss_trace(right), random.Random(seed))
        assert_well_formed(child)


class TestModeClosure:
    """A population never leaves its mode: whatever the GA's operators do to
    a generated trace, its mode and duration — and a link trace's packet
    budget (section 3.2) — are what the generator made them."""

    @staticmethod
    def _generator(mode, seed):
        if mode == "link":
            return LinkTraceGenerator(duration=DURATION, average_rate_mbps=1.0, seed=seed)
        if mode == "traffic":
            return TrafficTraceGenerator(duration=DURATION, max_packets=60, seed=seed)
        return LossTraceGenerator(duration=DURATION, max_losses=12, seed=seed)

    @given(
        mode=st.sampled_from(MODES),
        seed=seeds_st,
        steps=st.lists(st.sampled_from(("mutate", "crossover")), min_size=1, max_size=8),
    )
    @settings(max_examples=90, deadline=None)
    def test_operators_preserve_mode_duration_and_link_budget(self, mode, seed, steps):
        rng = random.Random(seed)
        first, mate = self._generator(mode, seed).generate_population(2)
        trace = first
        for step in steps:
            if step == "mutate":
                trace = mutate_trace(trace, rng)
            elif mode in CROSSOVER_OPERATORS:
                trace = crossover_traces(trace, mate, rng)
            assert_well_formed(trace)
            assert type(trace) is type(first)
            assert trace.mode == mode
            assert trace.duration == first.duration
            if mode == "link":
                assert trace.packet_count == first.packet_count


class TestFingerprint:
    @given(timestamps=timestamps_st)
    @settings(max_examples=60, deadline=None)
    def test_stable_under_copy_and_serialisation(self, timestamps):
        for trace in (link_trace(timestamps), traffic_trace(timestamps), loss_trace(timestamps)):
            assert trace.copy().fingerprint() == trace.fingerprint()
            round_tripped = type(trace).from_json(trace.to_json())
            assert round_tripped.fingerprint() == trace.fingerprint()

    @given(timestamps=timestamps_st)
    @settings(max_examples=60, deadline=None)
    def test_insensitive_to_metadata(self, timestamps):
        trace = traffic_trace(timestamps)
        tagged = trace.copy()
        tagged.metadata["mutated"] = True
        assert tagged.fingerprint() == trace.fingerprint()

    @given(
        timestamps=st.lists(
            st.floats(min_value=0.0, max_value=DURATION, allow_nan=False),
            min_size=1,
            max_size=40,
        ),
        index=st.integers(min_value=0, max_value=39),
        replacement=st.floats(min_value=0.0, max_value=DURATION, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_sensitive_to_any_timestamp_change(self, timestamps, index, replacement):
        trace = link_trace(timestamps)
        changed = list(trace.timestamps)
        changed[index % len(changed)] = replacement
        altered = link_trace(changed)
        if altered.timestamps == trace.timestamps:
            assert altered.fingerprint() == trace.fingerprint()
        else:
            assert altered.fingerprint() != trace.fingerprint()

    def test_distinguishes_trace_types_and_parameters(self):
        stamps = [0.25, 0.5, 1.5]
        base = link_trace(stamps)
        assert traffic_trace(stamps).fingerprint() != base.fingerprint()
        assert loss_trace(stamps).fingerprint() != base.fingerprint()
        longer = LinkTrace(timestamps=stamps, duration=DURATION + 1.0)
        assert longer.fingerprint() != base.fingerprint()
        wider = LinkTrace(timestamps=stamps, duration=DURATION, mss_bytes=9000)
        assert wider.fingerprint() != base.fingerprint()


def _bits(values):
    return struct.pack(f"<{len(values)}d", *values)


@st.composite
def codec_cases(draw):
    """A positive finite duration (subnormals included) and timestamps drawn
    from every finite double, -0.0, subnormals and the duration itself."""
    duration = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    timestamps = draw(st.lists(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(min_value=0.0, max_value=duration),
            st.floats(min_value=-2.3e-308, max_value=2.3e-308),
            st.sampled_from([-0.0, 0.0, duration]),
        ),
        max_size=40,
    ))
    return duration, timestamps


def _json_round_trip(payload):
    return json.loads(json.dumps(payload))


class TestCodec:
    """``to_dict`` packs timestamps as doubles: ``from_dict`` gives back the
    same bits, class, budget and fingerprint, and the list spelling of files
    written before the packed form reads to the same trace."""

    @given(case=codec_cases(), spare=st.integers(0, 5))
    @settings(max_examples=150, deadline=None)
    def test_round_trip_is_bit_identical_and_lists_still_read(self, case, spare):
        duration, timestamps = case
        for trace in (
            LinkTrace(timestamps=timestamps, duration=duration),
            TrafficTrace(timestamps=timestamps, duration=duration,
                         max_packets=len(timestamps) + spare),
            LossTrace(timestamps=timestamps, duration=duration, mss_bytes=1200),
        ):
            packed = trace.to_dict()
            assert "timestamps" not in packed
            assert _bits(unpack_le(packed["timestamps_f64le"])) == _bits(trace.timestamps)
            legacy = {key: value for key, value in packed.items() if key != "timestamps_f64le"}
            legacy["timestamps"] = list(trace.timestamps)
            for payload in (packed, legacy):
                restored = PacketTrace.from_dict(_json_round_trip(payload))
                assert type(restored) is type(trace)
                assert _bits(restored.timestamps) == _bits(trace.timestamps)
                assert _bits([restored.duration]) == _bits([trace.duration])
                assert getattr(restored, "max_packets", None) == getattr(trace, "max_packets", None)
                assert restored.fingerprint() == trace.fingerprint()

    @given(seed=seeds_st, draws=st.integers(0, 700), gauss=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_packed_rng_state_continues_the_stream(self, seed, draws, gauss):
        rng = random.Random(seed)
        for _ in range(draws):
            rng.random()
        if gauss:
            rng.gauss(0.0, 1.0)                 # leaves a cached second deviate
        version, internal, next_gauss = rng.getstate()
        state = _json_round_trip([version, pack_le(internal, "I"), next_gauss])
        clone = random.Random()
        clone.setstate((state[0], tuple(unpack_le(state[1], "I")), state[2]))
        assert [clone.gauss(0.0, 1.0) for _ in range(3)] == [rng.gauss(0.0, 1.0) for _ in range(3)]
        assert [clone.random() for _ in range(700)] == [rng.random() for _ in range(700)]
