"""Population containers for the genetic search."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional

from ..scoring.base import Score
from ..traces.trace import PacketTrace


@dataclass
class Individual:
    """One member of the population: a trace plus its evaluated fitness."""

    trace: PacketTrace
    score: Optional[Score] = None
    generation_born: int = 0
    #: How it entered the population: "initial", "seed", "elite", "crossover",
    #: "mutation", "explore", "immigrant" or "migrant".
    origin: str = "initial"
    result_summary: Dict[str, Any] = field(default_factory=dict)

    @property
    def fitness(self) -> float:
        """Total fitness (``-inf`` until evaluated)."""
        return self.score.total if self.score is not None else float("-inf")

    @property
    def is_evaluated(self) -> bool:
        return self.score is not None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form for journal checkpoints."""
        return {
            "trace": self.trace.to_dict(),
            "score": self.score.to_dict() if self.score is not None else None,
            "generation_born": self.generation_born,
            "origin": self.origin,
            "result_summary": dict(self.result_summary),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Individual":
        score = payload.get("score")
        return cls(
            trace=PacketTrace.from_dict(payload["trace"]),
            score=Score.from_dict(score) if score is not None else None,
            generation_born=int(payload.get("generation_born", 0)),
            origin=str(payload.get("origin", "initial")),
            result_summary=dict(payload.get("result_summary", {})),
        )


class Population:
    """An ordered collection of individuals (one island's pool)."""

    def __init__(self, individuals: Optional[Iterable[Individual]] = None) -> None:
        self.individuals: List[Individual] = list(individuals or [])

    def __len__(self) -> int:
        return len(self.individuals)

    def __iter__(self) -> Iterator[Individual]:
        return iter(self.individuals)

    def __getitem__(self, index: int) -> Individual:
        return self.individuals[index]

    def add(self, individual: Individual) -> None:
        self.individuals.append(individual)

    def extend(self, individuals: Iterable[Individual]) -> None:
        self.individuals.extend(individuals)

    def unevaluated(self) -> List[Individual]:
        return [ind for ind in self.individuals if not ind.is_evaluated]

    def sorted_by_fitness(self) -> List[Individual]:
        """Individuals ordered best-first."""
        return sorted(self.individuals, key=lambda ind: ind.fitness, reverse=True)

    def best(self) -> Individual:
        if not self.individuals:
            raise ValueError("population is empty")
        return max(self.individuals, key=lambda ind: ind.fitness)

    def worst_indices(self, count: int) -> List[int]:
        """Indices of the ``count`` lowest-fitness individuals."""
        order = sorted(
            range(len(self.individuals)), key=lambda i: self.individuals[i].fitness
        )
        return order[:count]

    def top(self, count: int) -> List[Individual]:
        return self.sorted_by_fitness()[:count]

    def mean_fitness(self) -> float:
        evaluated = [ind.fitness for ind in self.individuals if ind.is_evaluated]
        if not evaluated:
            return float("nan")
        return sum(evaluated) / len(evaluated)

    def replace(self, index: int, individual: Individual) -> None:
        self.individuals[index] = individual
