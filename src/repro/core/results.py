"""Result containers for a fuzzing run."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from ..traces.trace import PacketTrace
from .population import Individual


@dataclass
class GenerationStats:
    """Summary of one generation (aggregated across islands).

    ``top_k_mean_fitness`` mirrors the paper's Fig. 4d, which plots the mean
    of the best 20 traces per generation.
    """

    generation: int
    best_fitness: float
    mean_fitness: float
    top_k_mean_fitness: float
    best_summary: Dict[str, Any]
    evaluations: int                       #: simulations actually run (cache misses)
    per_island_best: List[float]
    cache_hits: int                        #: evaluations avoided by the trace cache
    behavior_cells: int                    #: cumulative archive cells this run opened

    def to_dict(self) -> Dict[str, Any]:
        return {
            "generation": self.generation,
            "best_fitness": self.best_fitness,
            "mean_fitness": self.mean_fitness,
            "top_k_mean_fitness": self.top_k_mean_fitness,
            "best_summary": dict(self.best_summary),
            "evaluations": self.evaluations,
            "per_island_best": list(self.per_island_best),
            "cache_hits": self.cache_hits,
            "behavior_cells": self.behavior_cells,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "GenerationStats":
        return cls(
            generation=int(payload["generation"]),
            best_fitness=float(payload["best_fitness"]),
            mean_fitness=float(payload["mean_fitness"]),
            top_k_mean_fitness=float(payload["top_k_mean_fitness"]),
            best_summary=dict(payload.get("best_summary", {})),
            evaluations=int(payload.get("evaluations", 0)),
            per_island_best=[float(v) for v in payload.get("per_island_best", [])],
            cache_hits=int(payload.get("cache_hits", 0)),
            behavior_cells=int(payload.get("behavior_cells", 0)),
        )


@dataclass
class FuzzResult:
    """Outcome of a complete fuzzing run."""

    mode: str
    cca_name: str
    best_individual: Individual
    final_population: List[Individual]
    generations: List[GenerationStats]
    total_evaluations: int                 #: simulator/evaluator executions (cache misses)
    converged_generation: int
    cache_hits: int                        #: this run's evaluations served from the cache
    #: Cache-lifetime counters; spans multiple runs when a cache is shared.
    cache_stats: Dict[str, Any]
    #: Fingerprints of the injected seed traces that made it into the initial
    #: population (corpus seeding provenance; empty for unseeded runs).
    seed_fingerprints: List[str]
    #: Guidance strategy the search ran under ("score"/"novelty").
    guidance: str
    #: Behavior-archive cells this run discovered (new cells, not visits).
    behavior_cells: int
    #: Snapshot of the archive's coverage statistics at the end of the run.
    coverage: Dict[str, Any]
    #: The behavior archive itself (shared object when one was injected).
    archive: Any

    @property
    def best_trace(self) -> PacketTrace:
        return self.best_individual.trace

    @property
    def best_fitness(self) -> float:
        return self.best_individual.fitness

    def top_individuals(self, count: int) -> List[Individual]:
        """Best ``count`` individuals of the final population."""
        ordered = sorted(self.final_population, key=lambda ind: ind.fitness, reverse=True)
        return ordered[:count]

    def fitness_trajectory(self) -> List[float]:
        """Best fitness per generation — the convergence curve."""
        return [stats.best_fitness for stats in self.generations]

    def improved(self) -> bool:
        """Whether the search improved on the initial generation's best."""
        trajectory = self.fitness_trajectory()
        if len(trajectory) < 2:
            return False
        return trajectory[-1] > trajectory[0]

    def summary(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "cca": self.cca_name,
            "generations": len(self.generations),
            "total_evaluations": self.total_evaluations,
            "cache_hits": self.cache_hits,
            "best_fitness": self.best_fitness,
            "best_origin": self.best_individual.origin,
            "best_result": dict(self.best_individual.result_summary),
            "seed_traces": len(self.seed_fingerprints),
            "guidance": self.guidance,
            "behavior_cells": self.behavior_cells,
        }
