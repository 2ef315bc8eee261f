"""Tests for trace containers, generators, mutation, crossover and constraints."""

from __future__ import annotations

import inspect
import json
import random

import pytest
from fake_backend import FunctionBackend
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import builtin_attack_traces
from repro.core.fuzzer import MODES, CCFuzz, FuzzConfig
from repro.coverage.signature import extract_signature
from repro.exec.workers import simulate_packet_trace
from repro.netsim.simulation import SimulationConfig, run_simulation
from repro.scoring.base import Score
from repro.scoring.objectives import make_score_function
from repro.scoring.realism import RealismScorer
from repro.tcp.cca import CCA_FACTORIES, Reno
from repro.traces import (
    LinkTrace,
    LinkTraceGenerator,
    LossTrace,
    LossTraceGenerator,
    PacketTrace,
    TraceValidationError,
    TrafficTrace,
    TrafficTraceGenerator,
    burstiness_index,
    crossover_traffic_traces,
    is_valid_trace,
    longest_silence,
    max_rate_deviation,
    mutate_link_trace,
    mutate_trace,
    mutate_traffic_trace,
    validate_trace,
)
from repro.traces.trace import TRACE_CLASSES
from repro.triage.minimize import STAGES_BY_MODE


class TestPacketTrace:
    def test_timestamps_sorted_and_clamped_on_construction(self):
        trace = PacketTrace(timestamps=[4.0, -1.0, 2.0, 99.0], duration=5.0)
        assert trace.timestamps == [0.0, 2.0, 4.0, 5.0]

    def test_average_rate(self):
        trace = PacketTrace(timestamps=[0.1 * i for i in range(50)], duration=5.0)
        assert trace.average_rate_pps == pytest.approx(10.0)
        assert trace.average_rate_mbps == pytest.approx(10 * 1500 * 8 / 1e6)

    def test_invalid_duration_rejected(self):
        with pytest.raises(ValueError):
            PacketTrace(timestamps=[], duration=0.0)

    @pytest.mark.parametrize("duration", [float("nan"), float("inf")])
    def test_non_finite_duration_rejected(self, duration):
        with pytest.raises(ValueError, match="positive and finite"):
            LinkTrace(timestamps=[0.5], duration=duration)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_timestamp_rejected(self, bad):
        # A NaN used to survive the clamp and leave the trace unsorted.
        with pytest.raises(ValueError, match="must be finite"):
            TrafficTrace(timestamps=[0.5, bad, 0.2, 1.0], duration=1.0)
        # Huge finite ones overflow the sum that finds ``bad``, and are clamped.
        trace = LossTrace(timestamps=[1e308, 1e308, 0.5], duration=2.0)
        assert trace.timestamps == [0.5, 2.0, 2.0]

    @pytest.mark.parametrize("payload", [
        {"type": "LinkTrace", "timestamps": [0.5]},
        {"type": "LinkTrace", "duration": 1.0},
        {"type": "LinkTrace", "duration": [1.0], "timestamps": [0.5]},
        {"type": "LinkTrace", "duration": 1.0, "timestamps": 5},
        {"type": "LinkTrace", "duration": 1.0, "timestamps": [0.5], "mss_bytes": None},
        {"type": "TrafficTrace", "duration": 1.0, "timestamps": [0.5], "max_packets": "4"},
        {"type": "LinkTrace", "duration": 1.0, "timestamps_f64le": "not base64!"},
        {"type": "LinkTrace", "duration": 1.0, "timestamps_f64le": "AAAA"},
        {"type": "LinkTrace", "duration": 1.0, "timestamps_f64le": 12},
        ["LinkTrace", 1.0],
    ], ids=lambda payload: json.dumps(payload)[:60])
    def test_malformed_payload_is_a_value_error(self, payload):
        with pytest.raises(ValueError):
            PacketTrace.from_dict(payload)

    def test_windowed_counts_cover_duration(self):
        trace = PacketTrace(timestamps=[0.5, 1.5, 1.6, 4.9], duration=5.0)
        counts = dict(trace.windowed_counts(1.0))
        assert counts[0.0] == 1
        assert counts[1.0] == 2
        assert counts[4.0] == 1
        assert sum(counts.values()) == 4

    def test_packets_in_interval(self):
        trace = PacketTrace(timestamps=[1.0, 2.0, 3.0], duration=5.0)
        assert trace.packets_in_interval(0.5, 2.5) == 2

    def test_cumulative_counts_monotone(self):
        trace = PacketTrace(timestamps=[0.5, 1.0, 2.0], duration=5.0)
        counts = trace.cumulative_counts()
        assert counts == [(0.5, 1), (1.0, 2), (2.0, 3)]

    def test_copy_is_independent(self):
        trace = PacketTrace(timestamps=[1.0], duration=5.0, metadata={"a": 1})
        clone = trace.copy()
        clone.timestamps.append(2.0)
        clone.metadata["a"] = 2
        assert trace.timestamps == [1.0]
        assert trace.metadata["a"] == 1

    @pytest.mark.parametrize(
        "trace",
        [
            PacketTrace(timestamps=[0.2, 0.1], duration=1.0),
            LinkTrace(timestamps=[0.2, 0.1], duration=1.0),
            TrafficTrace(timestamps=[0.2, 0.1], duration=1.0, max_packets=40),
            LossTrace(timestamps=[0.2, 0.1], duration=1.0, mss_bytes=1200),
        ],
        ids=lambda trace: type(trace).__name__,
    )
    def test_copy_clones_fields_without_renormalising(self, trace, monkeypatch):
        fingerprint = trace.fingerprint()
        monkeypatch.setattr(
            "repro.traces.trace._normalise_timestamps",
            lambda *args: pytest.fail("copy() re-normalised an already-normalised trace"),
        )
        clone = trace.copy()
        assert type(clone) is type(trace)
        assert clone == trace and clone.to_dict() == trace.to_dict()
        assert clone.timestamps is not trace.timestamps
        assert clone.metadata is not trace.metadata
        assert clone._fingerprint_cache == fingerprint      # carried, not re-hashed

    def test_json_roundtrip_preserves_type_and_data(self):
        trace = LinkTrace(timestamps=[0.5, 1.5], duration=5.0)
        restored = PacketTrace.from_json(trace.to_json())
        assert isinstance(restored, LinkTrace)
        assert restored.timestamps == trace.timestamps
        assert restored.duration == trace.duration

    def test_traffic_trace_json_roundtrip_keeps_budget(self):
        trace = TrafficTrace(timestamps=[1.0, 2.0], duration=5.0, max_packets=40)
        restored = PacketTrace.from_json(trace.to_json())
        assert isinstance(restored, TrafficTrace)
        assert restored.max_packets == 40


class TestTrafficTrace:
    def test_budget_enforced(self):
        with pytest.raises(ValueError):
            TrafficTrace(timestamps=[0.1, 0.2, 0.3], duration=1.0, max_packets=2)

    def test_default_budget_is_packet_count(self):
        trace = TrafficTrace(timestamps=[0.1, 0.2], duration=1.0)
        assert trace.max_packets == 2


class TestGenerators:
    def test_link_generator_fixed_packet_budget(self):
        generator = LinkTraceGenerator(duration=5.0, average_rate_mbps=12.0, seed=3)
        trace = generator.generate()
        assert trace.packet_count == 5000
        assert trace.average_rate_mbps == pytest.approx(12.0)

    def test_link_generator_population_all_same_budget(self):
        generator = LinkTraceGenerator(duration=2.0, average_rate_mbps=6.0, seed=3)
        population = generator.generate_population(5)
        counts = {trace.packet_count for trace in population}
        assert len(counts) == 1

    def test_link_generator_deterministic_per_seed(self):
        a = LinkTraceGenerator(duration=2.0, seed=9).generate()
        b = LinkTraceGenerator(duration=2.0, seed=9).generate()
        assert a.timestamps == b.timestamps

    def test_traffic_generator_respects_budget(self):
        generator = TrafficTraceGenerator(duration=5.0, max_packets=100, seed=5)
        for trace in generator.generate_population(10):
            assert trace.packet_count <= 100
            assert trace.max_packets == 100

    def test_traffic_generator_count_varies(self):
        generator = TrafficTraceGenerator(duration=5.0, max_packets=500, seed=5)
        counts = {trace.packet_count for trace in generator.generate_population(10)}
        assert len(counts) > 1

    def test_loss_generator_bounds(self):
        generator = LossTraceGenerator(duration=5.0, max_losses=7, seed=1)
        for trace in generator.generate_population(10):
            assert trace.packet_count <= 7
            assert all(0 <= t <= 5.0 for t in trace.timestamps)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            LinkTraceGenerator(duration=0.0)
        with pytest.raises(ValueError):
            TrafficTraceGenerator(duration=5.0, max_packets=0)
        with pytest.raises(ValueError):
            TrafficTraceGenerator(duration=5.0, max_packets=5, min_packets=9)


class TestMutation:
    def test_link_mutation_preserves_packet_count(self, rng):
        trace = LinkTraceGenerator(duration=5.0, seed=1).generate()
        for _ in range(10):
            mutated = mutate_link_trace(trace, rng)
            assert mutated.packet_count == trace.packet_count
            assert is_valid_trace(mutated)
            trace = mutated

    def test_link_mutation_changes_trace(self, rng):
        trace = LinkTraceGenerator(duration=5.0, seed=1).generate()
        mutated = mutate_link_trace(trace, rng)
        assert mutated.timestamps != trace.timestamps

    def test_link_invariants_hold_over_many_generations(self, rng):
        original = LinkTraceGenerator(duration=5.0, seed=2).generate()
        evolved = original
        for _ in range(25):
            evolved = mutate_link_trace(evolved, rng)
        assert evolved.packet_count == original.packet_count
        assert evolved.duration == pytest.approx(original.duration, abs=1e-9)
        assert is_valid_trace(evolved)

    def test_traffic_mutation_respects_budget(self, rng):
        trace = TrafficTraceGenerator(duration=5.0, max_packets=200, seed=2).generate()
        for _ in range(20):
            trace = mutate_traffic_trace(trace, rng)
            assert trace.packet_count <= trace.max_packets
            assert is_valid_trace(trace)

    def test_traffic_mutation_can_change_packet_count(self, rng):
        trace = TrafficTraceGenerator(duration=5.0, max_packets=200, seed=2).generate()
        counts = {mutate_traffic_trace(trace, rng).packet_count for _ in range(20)}
        assert len(counts) > 1

    def test_mutate_trace_dispatch(self, rng):
        link = LinkTraceGenerator(duration=2.0, seed=1).generate()
        traffic = TrafficTraceGenerator(duration=2.0, max_packets=50, seed=1).generate()
        loss = LossTraceGenerator(duration=2.0, max_losses=5, seed=1).generate()
        assert isinstance(mutate_trace(link, rng), LinkTrace)
        assert isinstance(mutate_trace(traffic, rng), TrafficTrace)
        assert isinstance(mutate_trace(loss, rng), LossTrace)
        with pytest.raises(TypeError):
            mutate_trace(PacketTrace(timestamps=[], duration=1.0), rng)


class TestCrossover:
    def test_child_within_budget_and_duration(self, rng):
        generator = TrafficTraceGenerator(duration=5.0, max_packets=300, seed=8)
        parent_a, parent_b = generator.generate(), generator.generate()
        for _ in range(20):
            child = crossover_traffic_traces(parent_a, parent_b, rng)
            assert child.packet_count <= child.max_packets
            assert is_valid_trace(child)

    def test_child_mixes_parents(self, rng):
        early = TrafficTrace(timestamps=[0.1 * i for i in range(1, 20)], duration=5.0, max_packets=100)
        late = TrafficTrace(timestamps=[4.0 + 0.05 * i for i in range(19)], duration=5.0, max_packets=100)
        children = [crossover_traffic_traces(early, late, rng) for _ in range(20)]
        assert any(
            any(t < 2.0 for t in child.timestamps) and any(t > 4.0 for t in child.timestamps)
            for child in children
        )

    def test_mismatched_durations_rejected(self, rng):
        a = TrafficTrace(timestamps=[0.1], duration=5.0, max_packets=10)
        b = TrafficTrace(timestamps=[0.1], duration=4.0, max_packets=10)
        with pytest.raises(ValueError):
            crossover_traffic_traces(a, b, rng)


class TestConstraints:
    def test_validate_accepts_generated_traces(self):
        trace = LinkTraceGenerator(duration=5.0, seed=11).generate()
        validate_trace(trace)

    def test_validate_rejects_budget_violation(self):
        trace = TrafficTrace(timestamps=[0.1, 0.2], duration=1.0, max_packets=5)
        trace.timestamps.extend([0.3] * 10)
        with pytest.raises(TraceValidationError):
            validate_trace(trace)

    def test_burstiness_zero_for_uniform_trace(self):
        uniform = PacketTrace(timestamps=[i * 0.05 for i in range(100)], duration=5.0)
        assert burstiness_index(uniform, window=0.5) == pytest.approx(0.0, abs=0.05)

    def test_burstiness_high_for_single_burst(self):
        burst = PacketTrace(timestamps=[2.0 + 0.001 * i for i in range(100)], duration=5.0)
        assert burstiness_index(burst, window=0.5) > 1.0

    def test_longest_silence(self):
        trace = PacketTrace(timestamps=[1.0, 1.1, 4.0], duration=5.0)
        assert longest_silence(trace) == pytest.approx(2.9)

    def test_longest_silence_empty_trace(self):
        assert longest_silence(PacketTrace(timestamps=[], duration=5.0)) == 5.0

    def test_max_rate_deviation_uniform(self):
        uniform = PacketTrace(timestamps=[i * 0.01 for i in range(500)], duration=5.0)
        assert max_rate_deviation(uniform, window=1.0) == pytest.approx(1.0, rel=0.05)


#: The paper's mode -> simulator input mapping, restated here (and nowhere in
#: ``src/`` but the trace classes) so the tests below check the declarations
#: against something other than themselves.
SIMULATOR_INPUT = {"link": "link_trace", "traffic": "cross_traffic_times", "loss": "loss_times"}


#: Long enough that every builtin attack has reached its first burst.
RELATION_DURATION = 2.0


def _generated(mode: str, duration: float = RELATION_DURATION) -> PacketTrace:
    """One trace of ``mode`` from the generator the fuzzer picks for it."""
    fuzzer = CCFuzz(
        Reno,
        FuzzConfig(mode=mode, population_size=2, generations=1, duration=duration, seed=3),
        backend=FunctionBackend(lambda trace: (Score(total=0.0, performance=0.0), {})),
    )
    return fuzzer.run().best_trace


def _outcome(cca: str, trace: PacketTrace, times):
    """``summary()`` + score + behavior signature of ``trace``'s mode simulated
    on the raw input ``times`` (a trace clamps and sorts; the simulator must
    not need it to)."""
    config = SimulationConfig(duration=trace.duration, record_series=False)
    result = run_simulation(CCA_FACTORIES[cca], config, **{SIMULATOR_INPUT[trace.mode]: times})
    score = make_score_function("throughput", trace.mode)(result, trace)
    return result.summary(), score, extract_signature(result).to_dict()


class TestModeRulebook:
    """What a fuzzing mode is, is declared once — and declared completely."""

    def test_modes_are_the_declared_classes(self):
        assert MODES == tuple(TRACE_CLASSES) == ("link", "traffic", "loss")
        assert {mode: cls.simulator_input for mode, cls in TRACE_CLASSES.items()} == SIMULATOR_INPUT
        untyped = PacketTrace(timestamps=[0.5], duration=1.0)
        assert untyped.mode is None and untyped.simulator_input is None

    @pytest.mark.parametrize("mode", MODES)
    def test_every_mode_is_complete(self, mode, rng):
        cls = TRACE_CLASSES[mode]
        assert cls.mode == mode
        assert cls.simulator_input in inspect.signature(run_simulation).parameters
        trace = _generated(mode)                       # a generator
        assert type(trace) is cls
        mutated = mutate_trace(trace, rng)             # a mutation operator
        assert type(mutated) is cls and mutated.duration == trace.duration
        assert STAGES_BY_MODE[mode]                    # minimizer stages
        assert PacketTrace.from_dict(trace.to_dict()).mode == trace.mode
        assert trace.copy().mode == trace.mode

    @pytest.mark.parametrize(
        "name",
        [f"generated-{mode}" for mode in MODES] + sorted(builtin_attack_traces(RELATION_DURATION)),
    )
    def test_simulating_a_trace_feeds_exactly_its_declared_input(self, name):
        """ROADMAP 1(b): ``simulate_packet_trace`` == ``run_simulation`` with
        the unpacked trace — and with no other unpacking (a loss trace
        replayed as cross traffic was the PR 20 ``repro-simulate`` bug)."""
        if name.startswith("generated-"):
            trace = _generated(name.split("-", 1)[1])
        else:
            trace = builtin_attack_traces(RELATION_DURATION)[name]
        assert trace.packet_count > 0
        config = SimulationConfig(duration=RELATION_DURATION, record_series=False)
        summary = simulate_packet_trace(Reno, config, trace).summary()
        for keyword in SIMULATOR_INPUT.values():
            unpacked = run_simulation(Reno, config, **{keyword: trace.timestamps}).summary()
            assert (unpacked == summary) == (keyword == SIMULATOR_INPUT[trace.mode]), keyword

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("cca", sorted(CCA_FACTORIES))
    def test_trace_events_after_duration_change_nothing(self, cca, mode):
        """ROADMAP 1(b): the simulator input beyond the run's end is inert."""
        trace = _generated(mode, duration=1.0)
        late = trace.timestamps + [1.0 + 1e-9, 1.25, 1.25, 7.0]
        assert _outcome(cca, trace, late) == _outcome(cca, trace, trace.timestamps)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("cca", sorted(CCA_FACTORIES))
    def test_permuting_trace_events_changes_nothing(self, cca, mode):
        """ROADMAP 1(b): events are a multiset of times — neither the order
        they are handed over in nor the order of same-timestamp events (every
        eighth one is doubled here) reaches the outcome."""
        generated = _generated(mode, duration=1.0)
        doubled = type(generated)(
            timestamps=generated.timestamps + generated.timestamps[::8], duration=1.0
        )
        shuffled = list(doubled.timestamps)
        random.Random(5).shuffle(shuffled)
        assert shuffled != doubled.timestamps
        assert _outcome(cca, doubled, shuffled) == _outcome(cca, doubled, doubled.timestamps)

    @pytest.mark.parametrize("cca", sorted(CCA_FACTORIES))
    def test_three_modes_share_one_baseline(self, cca):
        """ROADMAP 1(b): with nothing to inject, traffic mode and loss mode are
        the plain fixed-rate run, event for event.  Link mode is *not*: a
        1,000 pps opportunity grid serves on the grid and wastes opportunities
        that find the queue empty, a fixed-rate link serves ``1/rate`` after a
        packet reaches an idle link — sub-millisecond shifts the CCA feeds back
        (bbr 11.424 vs 11.118 Mbps, bbr-fixed 11.424 vs 10.164, reno and cubic
        11.550 vs 11.544 at 2 s).  That leg is a bounded difference."""
        config = SimulationConfig(duration=RELATION_DURATION, record_series=False)

        def observe(**simulator_input):
            result = run_simulation(CCA_FACTORIES[cca], config, **simulator_input)
            return result, (
                result.summary(),
                result.episode_summary(),
                extract_signature(result).to_dict(),
                result.events_executed,
            )

        fixed, baseline = observe()
        assert observe(cross_traffic_times=[])[1] == baseline
        assert observe(loss_times=[])[1] == baseline

        slots = int(RELATION_DURATION * 1000)
        grid, observed = observe(link_trace=[slot / 1000 for slot in range(slots)])
        assert observed != baseline
        assert grid.delivered_segments() + grid.link_wasted_opportunities <= slots
        rate = config.bottleneck_rate_mbps
        assert grid.throughput_mbps() <= rate and fixed.throughput_mbps() <= rate
        assert abs(grid.throughput_mbps() - fixed.throughput_mbps()) <= 0.15 * rate

    def test_untyped_trace_cannot_be_simulated(self):
        with pytest.raises(TypeError):
            simulate_packet_trace(Reno, None, PacketTrace(timestamps=[0.5], duration=1.0))

    def test_realism_refuses_loss_traces(self):
        scorer = RealismScorer(config=SimulationConfig(duration=1.0))
        with pytest.raises(TypeError, match="does not support LossTrace"):
            scorer.score(LossTrace(timestamps=[0.5], duration=1.0))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_property_link_mutation_preserves_invariants(seed):
    """Property: arbitrary mutation chains never break the link-fuzzing invariants."""
    rng = random.Random(seed)
    original = LinkTraceGenerator(duration=2.0, average_rate_mbps=6.0, seed=seed).generate()
    evolved = original
    for _ in range(5):
        evolved = mutate_link_trace(evolved, rng)
    assert evolved.packet_count == original.packet_count
    assert is_valid_trace(evolved)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_property_crossover_child_stays_valid(seed):
    """Property: crossover children always respect budget and time range."""
    rng = random.Random(seed)
    generator = TrafficTraceGenerator(duration=3.0, max_packets=150, seed=seed)
    parent_a, parent_b = generator.generate(), generator.generate()
    child = crossover_traffic_traces(parent_a, parent_b, rng)
    assert child.packet_count <= child.max_packets
    assert is_valid_trace(child)
