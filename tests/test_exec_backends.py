"""Tests for the exec subsystem: backend equivalence and exact cache accounting.

The determinism contract is the load-bearing property: for a fixed seed the
GA must produce bit-identical histories no matter which backend evaluates the
traces, because all randomness lives in the coordinating process and the
simulator consumes none.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import os
import pickle

import pytest
from fake_backend import FunctionBackend

from repro.core.fuzzer import CCFuzz, FuzzConfig
from repro.exec.backend import BACKENDS, ProcessPoolBackend, SerialBackend, create_backend
from repro.exec.batch import Evaluator
from repro.exec.cache import TraceCache, cca_identity, job_cache_key
from repro.exec.workers import EvaluationJob, evaluate_job
from repro.netsim.simulation import SimulationConfig
from repro.scoring.base import ScoreFunction
from repro.scoring.performance import LowUtilizationScore
from repro.tcp.cca.cubic import Cubic
from repro.tcp.cca.reno import Reno
from repro.traces.generator import TrafficTraceGenerator
from repro.traces.trace import LossTrace, TrafficTrace


def tiny_config(mode: str, **overrides) -> FuzzConfig:
    params = dict(
        mode=mode,
        population_size=4,
        generations=3,
        sim=SimulationConfig(duration=1.0, bottleneck_rate_mbps=3.0, record_series=False),
        max_traffic_packets=40,
        seed=13,
    )
    params.update(overrides)
    return FuzzConfig(**params)


def history_signature(result):
    """Everything a generation reports, for exact cross-backend comparison."""
    return [
        (
            stats.generation,
            stats.best_fitness,
            stats.mean_fitness,
            stats.top_k_mean_fitness,
            stats.evaluations,
            stats.cache_hits,
            tuple(stats.per_island_best),
            tuple(sorted(stats.best_summary.items())),
        )
        for stats in result.generations
    ]


class TestBackendEquivalence:
    @pytest.mark.parametrize("mode", ["link", "traffic", "loss"])
    def test_all_backends_identical_histories(self, mode):
        results = {}
        for backend in BACKENDS:
            with create_backend(backend, workers=2) as pool:
                results[backend] = CCFuzz(Reno, config=tiny_config(mode), backend=pool).run()
        serial = results["serial"]
        other = results["process"]
        assert history_signature(other) == history_signature(serial)
        assert other.best_fitness == serial.best_fitness
        assert other.total_evaluations == serial.total_evaluations
        assert other.best_trace.fingerprint() == serial.best_trace.fingerprint()

    def test_injected_backend_is_used_and_not_closed(self):
        backend = ProcessPoolBackend(workers=2)
        fuzzer = CCFuzz(Reno, config=tiny_config("traffic"), backend=backend)
        fuzzer.run()
        # The run used the injected pool and must not shut down a
        # caller-owned backend.
        assert backend._pool_instance is not None
        backend.close()
        assert backend._pool_instance is None

    def test_standalone_run_evaluates_on_a_serial_backend_it_closes(self, monkeypatch):
        import repro.core.fuzzer as fuzzer_module

        made = []

        class RecordingSerial(SerialBackend):
            def __init__(self):
                super().__init__()
                self.batches = 0
                self.closed = False
                made.append(self)

            def _run_jobs(self, jobs):
                self.batches += 1
                return super()._run_jobs(jobs)

            def close(self):
                self.closed = True

        monkeypatch.setattr(fuzzer_module, "SerialBackend", RecordingSerial)
        result = CCFuzz(Reno, config=tiny_config("traffic")).run()
        assert len(made) == 1
        assert made[0].batches == len(result.generations)
        assert made[0].closed

    def test_batch_results_preserve_input_order(self):
        generator = TrafficTraceGenerator(duration=1.0, max_packets=30, seed=3)
        traces = generator.generate_population(6)
        score_function = ScoreFunction(performance=LowUtilizationScore())
        jobs = [
            EvaluationJob(Reno, SimulationConfig(duration=1.0), trace, score_function)
            for trace in traces
        ]
        expected = [evaluate_job(job) for job in jobs]
        with SerialBackend() as serial:
            assert serial.evaluate_batch(jobs) == expected
        with ProcessPoolBackend(workers=2) as pooled:
            assert pooled.evaluate_batch(jobs) == expected

    def test_empty_batch(self):
        for backend in (SerialBackend(), ProcessPoolBackend(workers=1)):
            with backend:
                assert backend.evaluate_batch([]) == []

    def test_partial_cca_factory_job_is_picklable(self):
        job = EvaluationJob(
            cca_factory=functools.partial(Cubic, ns3_slow_start_bug=True),
            sim_config=SimulationConfig(duration=1.0),
            trace=TrafficTrace(timestamps=[0.1, 0.5], duration=1.0, max_packets=5),
            score_function=ScoreFunction(performance=LowUtilizationScore()),
        )
        restored = pickle.loads(pickle.dumps(job))
        assert restored.trace.fingerprint() == job.trace.fingerprint()
        assert evaluate_job(restored) == evaluate_job(job)


class TestCreateBackend:
    def test_names_map_to_classes(self):
        assert isinstance(create_backend("serial"), SerialBackend)
        backend = create_backend("process", workers=2)
        assert isinstance(backend, ProcessPoolBackend)
        backend.close()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            create_backend("quantum")

    @pytest.mark.parametrize("workers", [0, -1])
    def test_invalid_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            create_backend("process", workers=workers)
        with pytest.raises(ValueError, match="workers"):
            ProcessPoolBackend(workers=workers)

    def test_default_workers_follow_cpu_affinity(self, monkeypatch):
        # Pinned to one CPU of four (``taskset -c 0``), the default pool must
        # not put four workers on it.
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert ProcessPoolBackend().workers == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert ProcessPoolBackend().workers == 4

    def test_process_chunking_covers_batch(self):
        # The per-worker prefetch is derived, never set: ceil(n / 4·workers).
        backend = ProcessPoolBackend(workers=2)
        assert backend._prefetch(1) == 1
        assert backend._prefetch(8) == 1
        assert backend._prefetch(80) == 10
        assert backend._prefetch(81) == 11

    def test_the_pool_sends_and_receives_one_message_per_chunk(self, monkeypatch):
        # The wire is per chunk, not per job: a batch of N jobs on one worker
        # crosses the parent's pipe as ceil(N / prefetch) job messages and
        # comes back as as many result messages.
        from multiprocessing.connection import Connection

        parent = os.getpid()
        messages = {"send": 0, "recv": 0}

        def counted(name):
            method = getattr(Connection, name)

            def wrapper(self, *args):
                if os.getpid() == parent:  # forked workers inherit the patch
                    messages[name] += 1
                return method(self, *args)

            return wrapper

        monkeypatch.setattr(Connection, "send", counted("send"))
        monkeypatch.setattr(Connection, "recv", counted("recv"))
        generator = TrafficTraceGenerator(duration=1.0, max_packets=30, seed=3)
        score_function = ScoreFunction(performance=LowUtilizationScore())
        jobs = [
            EvaluationJob(Reno, SimulationConfig(duration=1.0), trace, score_function)
            for trace in generator.generate_population(12)
        ]
        backend = ProcessPoolBackend(workers=1)
        assert backend._prefetch(len(jobs)) == 3
        with backend:
            outcomes = backend.evaluate_batch(jobs)
            wire = dict(messages)  # before close() sends the shutdown sentinel
        assert wire == {"send": 4, "recv": 4}
        assert outcomes == [evaluate_job(job) for job in jobs]


class TestTraceCache:
    SCORE = ScoreFunction(performance=LowUtilizationScore())

    def make_key(self, seed: int):
        trace = TrafficTrace(timestamps=[0.1 * seed], duration=1.0, max_packets=5)
        return job_cache_key(EvaluationJob(Reno, SimulationConfig(duration=1.0), trace, self.SCORE))

    def test_hit_and_miss_counting_is_exact(self):
        from repro.scoring.base import Score

        cache = TraceCache()
        key = self.make_key(1)
        assert cache.get(key) is None
        assert (cache.hits, cache.misses) == (0, 1)
        cache.put(key, Score(total=1.0, performance=1.0), {"x": 1})
        for lookup in range(3):
            score, summary = cache.get(key)
            assert score.total == 1.0
            assert summary == {"x": 1}
        assert (cache.hits, cache.misses) == (3, 1)
        assert cache.hit_rate == pytest.approx(0.75)

    def test_cached_summary_is_isolated_from_callers(self):
        from repro.scoring.base import Score

        cache = TraceCache()
        key = self.make_key(1)
        cache.put(key, Score(total=1.0, performance=1.0), {"x": 1})
        _, summary = cache.get(key)
        summary["x"] = 99
        assert cache.get(key)[1] == {"x": 1}

    def test_key_distinguishes_trace_cca_and_config(self):
        trace_a = TrafficTrace(timestamps=[0.1], duration=1.0, max_packets=5)
        trace_b = TrafficTrace(timestamps=[0.2], duration=1.0, max_packets=5)
        config = SimulationConfig(duration=1.0)

        def key(trace, cca, sim):
            return job_cache_key(EvaluationJob(cca, sim, trace, self.SCORE))

        base = key(trace_a, Reno, config)
        assert key(trace_a.copy(), Reno, SimulationConfig(duration=1.0)) == base
        assert key(trace_b, Reno, config) != base
        assert key(trace_a, Cubic, config) != base
        assert key(trace_a, Reno, config.with_overrides(queue_capacity=10)) != base

    def test_sim_config_cannot_drift_from_its_memoized_fingerprint(self):
        # The fingerprint is memoized and part of every cache key: a field
        # assigned afterwards would be a wrong-score cache hit.
        config = SimulationConfig()
        before = config.fingerprint()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.queue_capacity = 5
        assert config.fingerprint() == before
        changed = config.with_overrides(queue_capacity=5)
        assert changed.fingerprint() == SimulationConfig(queue_capacity=5).fingerprint() != before

    def test_lru_eviction(self):
        from repro.scoring.base import Score

        cache = TraceCache(max_entries=2)
        keys = [self.make_key(i) for i in range(3)]
        for index, key in enumerate(keys):
            cache.put(key, Score(total=float(index), performance=float(index)), {})
        assert len(cache) == 2
        assert cache.evictions == 1
        assert keys[0] not in cache
        assert keys[1] in cache and keys[2] in cache

    def test_invalid_max_entries(self):
        with pytest.raises(ValueError):
            TraceCache(max_entries=0)


class TestEvaluator:
    SCORE = ScoreFunction(performance=LowUtilizationScore())

    def test_evaluator_runs_first_occurrences_only(self):
        """The accounting every producer of a score shares: the first
        occurrence of a key is one ``get``, in-batch repeats are coalesced
        onto it, only the misses reach the backend, and without a cache
        everything does."""
        from repro.scoring.base import Score

        samples = itertools.count()

        def noisy(trace):
            fitness = float(next(samples))  # deliberately nondeterministic
            return Score(total=fitness, performance=fitness), {"first": trace.timestamps[0]}

        def job(seed):
            trace = TrafficTrace(timestamps=[0.1 * seed], duration=1.0, max_packets=5)
            return EvaluationJob(Reno, SimulationConfig(duration=1.0), trace, self.SCORE)

        backend = FunctionBackend(noisy)
        cache = TraceCache()
        evaluator = Evaluator(backend, cache)
        outcomes, simulations, hits = evaluator.evaluate_counted([job(1), job(2), job(1), job(1)])
        assert (simulations, hits, backend.calls) == (2, 2, 2)
        assert (cache.misses, cache.hits) == (2, 2)     # one get each; repeats coalesced
        assert outcomes[0] == outcomes[2] == outcomes[3] != outcomes[1]
        # Coalesced repeats get their own summary dict, not the first one's.
        assert outcomes[0][1] is not outcomes[2][1]

        again, simulations, hits = evaluator.evaluate_counted([job(2), job(3)])
        assert (simulations, hits, backend.calls) == (1, 1, 3)
        assert (cache.misses, cache.hits) == (3, 3)
        assert again[0] == outcomes[1]          # the memo, not a fresh noisy sample
        assert (evaluator.simulations, evaluator.cache_hits) == (3, 3)

        uncached = Evaluator(FunctionBackend(noisy))
        _, simulations, hits = uncached.evaluate_counted([job(1), job(1), job(2)])
        assert (simulations, hits, uncached.backend.calls) == (3, 0, 3)


class TestFuzzerCacheIntegration:
    def test_elite_reevaluations_drop_to_zero(self, monkeypatch):
        monkeypatch.setattr(FuzzConfig, "k_elite", 2)
        config = tiny_config("traffic", generations=5)
        fuzzer = CCFuzz(Reno, config=config)
        result = fuzzer.run()
        # Elites are cloned unevaluated and must all be cache hits: the
        # simulator only ever runs for the initial population plus the new
        # offspring of each later generation.
        later_generations = result.generations[1:]
        assert all(stats.cache_hits >= config.k_elite for stats in later_generations)
        max_simulations = config.population_size + len(later_generations) * (
            config.population_size - config.k_elite
        )
        assert result.total_evaluations <= max_simulations
        assert result.cache_hits >= config.k_elite * len(later_generations)
        assert result.cache_stats["hits"] == result.cache_hits

    def test_shared_cache_across_runs_skips_known_traces(self):
        cache = TraceCache()
        config = tiny_config("traffic")
        first = CCFuzz(Reno, config=config, cache=cache).run()
        second = CCFuzz(Reno, config=tiny_config("traffic"), cache=cache).run()
        # Identical seed: the second run's whole trajectory is cache-served.
        assert second.total_evaluations == 0
        assert second.best_fitness == first.best_fitness

    def test_shared_cache_never_mixes_cca_variants(self):
        from repro.tcp.cca.bbr import Bbr

        buggy = cca_identity(Bbr())
        fixed = cca_identity(Bbr(probe_rtt_on_rto=True))
        assert buggy != fixed
        assert buggy.startswith("bbr:") and fixed.startswith("bbr:")
        # Same constructor arguments -> same identity, across instances.
        assert cca_identity(Bbr()) == buggy
        assert cca_identity(functools.partial(Bbr, probe_rtt_on_rto=True)()) == fixed

        cache = TraceCache()
        config = tiny_config("traffic")
        CCFuzz(Bbr, config=config, cache=cache).run()
        fixed_run = CCFuzz(
            functools.partial(Bbr, probe_rtt_on_rto=True),
            config=tiny_config("traffic"),
            cache=cache,
        ).run()
        # The fixed-BBR run must re-simulate everything, not reuse buggy-BBR scores.
        assert fixed_run.total_evaluations > 0

    def test_shared_cache_never_mixes_score_functions(self):
        from repro.scoring.trace_score import MinimalTrafficScore

        light = ScoreFunction(
            performance=LowUtilizationScore(), trace=MinimalTrafficScore(), trace_weight=1e-3
        )
        heavy = ScoreFunction(
            performance=LowUtilizationScore(), trace=MinimalTrafficScore(), trace_weight=10.0
        )
        assert light.fingerprint() != heavy.fingerprint()
        # Same configuration across instances -> same fingerprint.
        assert light.fingerprint() == ScoreFunction(
            performance=LowUtilizationScore(), trace=MinimalTrafficScore(), trace_weight=1e-3
        ).fingerprint()

        cache = TraceCache()
        config = tiny_config("traffic")
        first = CCFuzz(Reno, config=config, score_function=light, cache=cache).run()
        second = CCFuzz(
            Reno, config=tiny_config("traffic"), score_function=heavy, cache=cache
        ).run()
        # The differently-scored run must re-simulate, not reuse fitnesses.
        assert second.total_evaluations > 0
        fresh = CCFuzz(Reno, config=tiny_config("traffic"), score_function=heavy).run()
        assert second.best_fitness == fresh.best_fitness
        assert second.best_fitness != first.best_fitness

    def test_default_cache_is_bounded(self):
        fuzzer = CCFuzz(Reno, config=tiny_config("traffic"))
        assert fuzzer.cache.max_entries >= 4096

    def test_cache_disabled_gives_identical_history(self):
        cached = CCFuzz(Reno, config=tiny_config("traffic")).run()
        uncached = CCFuzz(Reno, config=tiny_config("traffic", use_cache=False)).run()
        assert [s.best_fitness for s in cached.generations] == [
            s.best_fitness for s in uncached.generations
        ]
        assert uncached.cache_hits == 0
        assert uncached.cache_stats == {}
