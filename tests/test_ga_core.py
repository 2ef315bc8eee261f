"""Tests for the genetic-algorithm core: selection, islands, population
bookkeeping and the CCFuzz loop (driven by a fast fake evaluator)."""

from __future__ import annotations

import dataclasses
import random

import pytest
from fake_backend import FunctionBackend

from repro.core import islands as islands_module
from repro.core.fuzzer import CCFuzz, FuzzConfig
from repro.core.islands import IslandModel
from repro.core.population import Individual, Population
from repro.core.selection import RankSelection, pick_elites
from repro.netsim.simulation import SimulationConfig
from repro.scoring.base import Score
from repro.tcp.cca.reno import Reno
from repro.traces.trace import TrafficTrace


def individual(fitness: float, seq: int = 0) -> Individual:
    ind = Individual(trace=TrafficTrace(timestamps=[0.1 * seq], duration=5.0, max_packets=10))
    ind.score = Score(total=fitness, performance=fitness)
    return ind


class TestPopulation:
    def test_best_and_sorting(self):
        population = Population([individual(1.0), individual(5.0), individual(3.0)])
        assert population.best().fitness == 5.0
        assert [ind.fitness for ind in population.sorted_by_fitness()] == [5.0, 3.0, 1.0]

    def test_unevaluated_tracking(self):
        fresh = Individual(trace=TrafficTrace(timestamps=[], duration=1.0, max_packets=5))
        population = Population([individual(1.0), fresh])
        assert population.unevaluated() == [fresh]
        assert fresh.fitness == float("-inf")

    def test_worst_indices(self):
        population = Population([individual(5.0), individual(1.0), individual(3.0)])
        assert population.worst_indices(2) == [1, 2]

    def test_mean_fitness(self):
        population = Population([individual(2.0), individual(4.0)])
        assert population.mean_fitness() == pytest.approx(3.0)

    def test_best_of_empty_population_raises(self):
        with pytest.raises(ValueError):
            Population().best()


class TestRankSelection:
    def test_better_ranked_selected_more_often(self):
        rng = random.Random(0)
        selection = RankSelection(rng)
        ranked = [individual(10.0), individual(5.0), individual(1.0)]
        counts = {0: 0, 1: 0, 2: 0}
        for _ in range(3000):
            chosen = selection.select_one(ranked)
            counts[ranked.index(chosen)] += 1
        assert counts[0] > counts[1] > counts[2]
        # 1/rank weights: rank 1 should get roughly 6/11 of the picks.
        assert counts[0] / 3000 == pytest.approx(6 / 11, abs=0.05)

    def test_pairs_prefer_distinct_parents(self):
        rng = random.Random(1)
        selection = RankSelection(rng)
        ranked = [individual(3.0), individual(2.0), individual(1.0)]
        pairs = selection.select_pairs(ranked, 50)
        assert sum(1 for a, b in pairs if a is b) < 10

    def test_select_from_empty_raises(self):
        selection = RankSelection(random.Random(0))
        with pytest.raises(ValueError):
            selection.select_one([])

    def test_pick_elites(self):
        ranked = [individual(3.0), individual(2.0), individual(1.0)]
        assert pick_elites(ranked, 2) == ranked[:2]
        with pytest.raises(ValueError):
            pick_elites(ranked, -1)


class TestIslandModel:
    @pytest.fixture(autouse=True)
    def short_migration(self, monkeypatch):
        # Migration every 5 generations, a quarter of each island.
        monkeypatch.setattr(islands_module, "MIGRATION_INTERVAL", 5)
        monkeypatch.setattr(islands_module, "MIGRATION_FRACTION", 0.25)

    def make_islands(self, count: int = 3, size: int = 4) -> IslandModel:
        islands = []
        fitness = 0.0
        for _ in range(count):
            members = []
            for _ in range(size):
                fitness += 1.0
                members.append(individual(fitness))
            islands.append(Population(members))
        return IslandModel(islands)

    def test_migration_moves_best_to_next_island(self):
        model = self.make_islands()
        best_island_0 = model.islands[0].best().fitness
        moved = model.migrate(generation=4)
        assert moved == 3
        fitness_in_island_1 = [ind.fitness for ind in model.islands[1]]
        assert best_island_0 in fitness_in_island_1

    def test_migration_replaces_worst(self):
        model = self.make_islands()
        worst_before = min(ind.fitness for ind in model.islands[1])
        migrant_fitness = model.islands[0].best().fitness
        model.migrate(generation=4)
        fitness_after = [ind.fitness for ind in model.islands[1]]
        # The destination's previous worst member is gone, replaced by the
        # source island's best trace (which may itself be weaker or stronger).
        assert worst_before not in fitness_after
        assert migrant_fitness in fitness_after

    def test_should_migrate_respects_interval(self):
        model = self.make_islands()
        assert not model.should_migrate(generation=0)
        assert model.should_migrate(generation=4)
        assert model.should_migrate(generation=9)

    def test_single_island_never_migrates(self, monkeypatch):
        monkeypatch.setattr(islands_module, "MIGRATION_INTERVAL", 1)
        model = IslandModel([Population([individual(1.0)])])
        assert not model.should_migrate(generation=0)

    def test_best_across_islands(self):
        model = self.make_islands()
        assert model.best().fitness == 12.0


def early_packets_fitness(trace):
    """Deterministic fitness: prefers traffic traces with many early packets.

    Gives the GA a smooth landscape so tests can assert real improvement
    without running the simulator.
    """
    early = sum(1 for t in trace.timestamps if t < trace.duration / 2)
    fitness = float(early)
    return Score(total=fitness, performance=fitness), {"early_packets": early}


class TestCCFuzzLoop:
    def make_fuzzer(self, **overrides):
        params = dict(
            mode="traffic",
            population_size=8,
            generations=6,
            duration=2.0,
            max_traffic_packets=60,
            seed=7,
        )
        params.update(overrides)
        config = FuzzConfig(**params)
        backend = FunctionBackend(early_packets_fitness)
        return CCFuzz(Reno, config=config, backend=backend), backend

    def test_fitness_improves_over_generations(self):
        fuzzer, _ = self.make_fuzzer()
        result = fuzzer.run()
        assert result.best_fitness >= result.generations[0].best_fitness
        assert result.improved() or result.best_fitness == result.generations[0].best_fitness

    def test_population_size_maintained(self):
        fuzzer, _ = self.make_fuzzer()
        result = fuzzer.run()
        assert len(result.final_population) == fuzzer.config.total_population

    def test_elite_preserved_across_generations(self, monkeypatch):
        monkeypatch.setattr(FuzzConfig, "k_elite", 2)
        fuzzer, _ = self.make_fuzzer()
        result = fuzzer.run()
        best_per_generation = result.fitness_trajectory()
        # With elitism the best fitness never decreases.
        assert all(b >= a - 1e-9 for a, b in zip(best_per_generation, best_per_generation[1:]))

    def test_evaluations_counted(self):
        fuzzer, evaluator = self.make_fuzzer(generations=3)
        result = fuzzer.run()
        assert result.total_evaluations == evaluator.calls
        assert result.total_evaluations >= fuzzer.config.population_size

    def test_elites_not_reevaluated(self, monkeypatch):
        monkeypatch.setattr(FuzzConfig, "k_elite", 2)
        fuzzer, evaluator = self.make_fuzzer(generations=3)
        result = fuzzer.run()
        expected_max = fuzzer.config.population_size + 2 * (
            fuzzer.config.population_size - fuzzer.config.k_elite
        )
        assert evaluator.calls <= expected_max

    def test_deterministic_given_seed(self):
        first, _ = self.make_fuzzer(seed=11)
        second, _ = self.make_fuzzer(seed=11)
        assert first.run().best_fitness == second.run().best_fitness

    def test_seed_traces_join_initial_population(self):
        seed_trace = TrafficTrace(
            timestamps=[0.01 * i for i in range(50)], duration=2.0, max_packets=60
        )
        fuzzer, _ = self.make_fuzzer()
        fuzzer.seed_traces = [seed_trace]
        result = fuzzer.run()
        assert any(ind.origin in ("seed", "elite") for ind in result.final_population)
        # The seed trace is already near-optimal for the fake objective.
        assert result.best_fitness >= 49

    def test_islands_and_migration(self, monkeypatch):
        # Two migrations within the six generations.
        monkeypatch.setattr(islands_module, "MIGRATION_INTERVAL", 2)
        fuzzer, _ = self.make_fuzzer(islands=3, population_size=4, generations=6)
        result = fuzzer.run()
        assert len(result.final_population) == 12
        assert result.best_fitness >= result.generations[0].best_fitness

    def test_link_mode_has_no_crossover(self):
        config = FuzzConfig(
            mode="link", population_size=6, generations=3, seed=3,
            sim=SimulationConfig(duration=2.0, bottleneck_rate_mbps=3.0),
        )
        fuzzer = CCFuzz(Reno, config=config, backend=FunctionBackend(early_packets_fitness))
        result = fuzzer.run()
        assert all(ind.origin != "crossover" for ind in result.final_population)

    def test_traffic_mode_produces_crossovers(self):
        fuzzer, _ = self.make_fuzzer(generations=4)
        result = fuzzer.run()
        assert any(ind.origin == "crossover" for ind in result.final_population)

    def test_progress_callback_invoked_per_generation(self):
        fuzzer, _ = self.make_fuzzer(generations=4)
        seen = []
        fuzzer.run(progress=seen.append)
        assert len(seen) == len(fuzzer.run(progress=None).generations) or len(seen) >= 4

    def test_top_individuals_sorted(self):
        fuzzer, _ = self.make_fuzzer()
        result = fuzzer.run()
        top = result.top_individuals(3)
        assert top[0].fitness >= top[1].fitness >= top[2].fitness

    @pytest.mark.parametrize("generations", [1, 3])
    def test_runs_exactly_the_generation_budget(self, generations):
        fuzzer, _ = self.make_fuzzer(generations=generations)
        result = fuzzer.run()
        assert [stats.generation for stats in result.generations] == list(range(generations))
        assert result.converged_generation == generations - 1

    def test_only_the_last_checkpoint_is_converged(self):
        fuzzer, _ = self.make_fuzzer(generations=3)
        snapshots = []
        fuzzer.run(checkpoint=snapshots.append)
        assert [(s["generation"], s["converged"]) for s in snapshots] == [
            (0, False), (1, False), (2, True),
        ]

    def test_signatureless_outcomes_are_skipped_by_the_archive(self):
        # The fake backend's summaries carry no behavior signature: nothing
        # is observed, and the run still reports (empty) coverage.
        fuzzer, _ = self.make_fuzzer(generations=2)
        result = fuzzer.run()
        assert len(fuzzer.archive) == 0
        assert result.behavior_cells == 0
        assert result.coverage["cells"] == 0
        assert result.coverage["observations"] == 0
        assert all(stats.behavior_cells == 0 for stats in result.generations)


#: Every FuzzConfig field -> who sets it, or why it stays.  A field nothing
#: sets is deleted, not kept: a new field names its caller here.
FUZZ_CONFIG_CALLERS = {
    "mode": "Scenario.fuzz_config (spec modes, repro-fuzz --mode)",
    "population_size": "GaBudget (spec budget, repro-fuzz --population)",
    "generations": "GaBudget (spec budget, repro-fuzz --generations)",
    "islands": "GaBudget (spec budget, repro-fuzz --islands)",
    "seed": "Scenario.fuzz_config (the scenario's seed)",
    "top_k": "GaBudget (spec budget)",
    "duration": "GaBudget (spec budget, repro-fuzz --duration)",
    "max_traffic_packets": "figure benchmarks (fig4d, sec43) and the simulation goldens",
    "use_cache": "the uncached reference (tests/test_exec_backends.py)",
    "guidance": "spec guidance, repro-fuzz --guidance",
    "sim": "Scenario.fuzz_config (the condition's simulation)",
}


class TestFuzzConfig:
    def test_every_field_names_its_caller(self):
        fields = [field.name for field in dataclasses.fields(FuzzConfig)]
        assert fields == list(FUZZ_CONFIG_CALLERS)

    @pytest.mark.parametrize("knob, value", [
        ("annealing_sigma", 2.0),
        ("patience", 3),
        ("target_fitness", 5.0),
        ("backend", "process"),
        ("workers", 2),
        # The paper's constants, and the simulation's rate.
        ("k_elite", 2),
        ("crossover_fraction", 0.5),
        ("migration_interval", 5),
        ("migration_fraction", 0.2),
        ("novelty_weight", 2.0),
        ("immigrant_fraction", 1.0),
        ("k_agg", 0.1),
        ("rate_bound", 3.0),
        ("max_losses", 5),
        ("average_rate_mbps", 3.0),
    ])
    def test_removed_knobs_are_rejected(self, knob, value):
        # These knobs had no caller and were deleted; passing one is an
        # error, never a silently ignored setting.
        with pytest.raises(TypeError, match=knob):
            FuzzConfig(**{knob: value})

    def test_the_link_rate_is_the_simulations(self):
        config = FuzzConfig(
            mode="link", seed=3,
            sim=SimulationConfig(duration=2.0, bottleneck_rate_mbps=4.0),
        )
        assert config.average_rate_mbps == 4.0
        trace = CCFuzz(Reno, config=config)._make_generator(seed=3).generate()
        # 4 Mbps for 2 s is 666.7 packets of 1,500 bytes, rounded to 667.
        assert trace.packet_count == 667
        assert trace.average_rate_mbps == pytest.approx(4.0, rel=1e-3)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            FuzzConfig(mode="bogus")

    def test_invalid_population_rejected(self):
        with pytest.raises(ValueError):
            FuzzConfig(population_size=1)

    @pytest.mark.parametrize("top_k", [0, -3])
    def test_top_k_must_be_positive(self, top_k):
        with pytest.raises(ValueError, match="top_k"):
            FuzzConfig(top_k=top_k)

    @pytest.mark.parametrize("duration", [0.0, -1.0])
    def test_duration_must_be_positive(self, duration):
        with pytest.raises(ValueError, match="duration"):
            FuzzConfig(duration=duration)

    @pytest.mark.parametrize("generations", [0, -1])
    def test_generations_must_be_positive(self, generations):
        with pytest.raises(ValueError, match="generations"):
            FuzzConfig(generations=generations)

    def test_paper_defaults_match_section_4(self):
        config = FuzzConfig.paper_defaults()
        assert config.total_population == 500
        assert config.islands == 20
        assert config.k_elite == 1
        assert config.crossover_fraction == pytest.approx(0.3)
        assert islands_module.MIGRATION_INTERVAL == 10
        assert islands_module.MIGRATION_FRACTION == pytest.approx(0.1)
        assert config.sim.bottleneck_rate_mbps == pytest.approx(12.0)
        assert config.sim.min_rto == pytest.approx(1.0)

    def test_duration_propagates_to_simulation(self):
        config = FuzzConfig(duration=3.0)
        assert config.sim.duration == 3.0
        paper = FuzzConfig.paper_defaults(duration=2.0)
        assert paper.sim == SimulationConfig(duration=2.0)

    def test_an_explicit_sim_keeps_its_duration(self):
        config = FuzzConfig(sim=SimulationConfig(duration=2.0))
        assert (config.duration, config.sim.duration) == (2.0, 2.0)
        assert FuzzConfig(duration=2.0, sim=SimulationConfig(duration=2.0)).duration == 2.0

    def test_disagreeing_durations_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            FuzzConfig(duration=3.0, sim=SimulationConfig(duration=2.0))
