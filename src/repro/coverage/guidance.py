"""Pluggable search-guidance strategies for the genetic fuzzer.

A guidance strategy owns two decisions the GA otherwise makes on raw
fitness alone:

* **ranking** — the best-first order used for elitism and rank-proportional
  parent selection, and
* **immigration** — extra individuals injected into the next generation
  from the behavior archive.

Two strategies ship:

* ``score`` (default) — pure fitness, draws nothing from the archive and
  consumes no randomness, so runs are bit-identical to the pre-coverage
  fuzzer.
* ``novelty`` — blends an archive-rarity bonus into the ranking (rare or
  unseen cells rank above equally-fit crowded ones) and immigrates mutants
  of elites from the least-visited cells.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List, Optional, Sequence

from ..traces.trace import PacketTrace
from .archive import BehaviorArchive
from .signature import signature_from_summary

if TYPE_CHECKING:  # import at type-time only: core.fuzzer imports this module
    from ..core.population import Individual, Population

#: Guidance strategy names accepted by FuzzConfig and campaign specs.
GUIDANCE_MODES = ("score", "novelty")


class SearchGuidance:
    """Base strategy: pure fitness (the paper's GA), archive-blind."""

    name = "score"

    def rank(self, population: "Population", archive: BehaviorArchive) -> List["Individual"]:
        """Individuals ordered best-first for elitism and parent selection."""
        return population.sorted_by_fitness()

    def immigrant_count(self, slots: int) -> int:
        """How many of ``slots`` offspring to replace with archive immigrants."""
        return 0

    def immigrants(
        self, archive: BehaviorArchive, count: int, rng: random.Random
    ) -> List[PacketTrace]:
        """Traces to re-inject (callers mutate them before insertion)."""
        return []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


def _cell_of(individual: "Individual") -> Optional[str]:
    signature = signature_from_summary(individual.result_summary)
    return signature.cell_key() if signature is not None else None


def _fitness_spread(individuals: Sequence["Individual"]) -> float:
    """Scale factor that makes the rarity bonus commensurate with fitness.

    Fitness units differ per objective (negated Mbps, delay seconds, loss
    fraction), so the bonus is expressed in units of the population's
    current fitness spread; a degenerate (single-fitness) population falls
    back to 1.0 so novelty can still break ties.
    """
    fitnesses = [ind.fitness for ind in individuals if ind.is_evaluated]
    if len(fitnesses) < 2:
        return 1.0
    spread = max(fitnesses) - min(fitnesses)
    return spread if spread > 0 else 1.0


class NoveltyGuidance(SearchGuidance):
    """Fitness plus an archive-rarity bonus; immigrants from sparse cells."""

    name = "novelty"

    def __init__(self, novelty_weight: float = 1.0, immigrant_fraction: float = 0.25) -> None:
        if novelty_weight < 0:
            raise ValueError("novelty_weight must be non-negative")
        if not 0.0 <= immigrant_fraction <= 1.0:
            raise ValueError("immigrant_fraction must be in [0, 1]")
        self.novelty_weight = novelty_weight
        self.immigrant_fraction = immigrant_fraction

    def rank(self, population: "Population", archive: BehaviorArchive) -> List["Individual"]:
        spread = _fitness_spread(population.individuals)
        scale = self.novelty_weight * spread

        # Local competition: within one behavior cell only the fittest
        # individual competes globally (tier 0); its cellmates drop to tier 1
        # regardless of raw fitness.  This is the niching that stops a single
        # high-scoring failure mode from monopolising every parent slot, and
        # it is what actually forces the population to stay spread across
        # cells — the rarity bonus alone only reorders the margin.
        seen_cells: set = set()
        tiers = {}
        for individual in population.sorted_by_fitness():
            cell = _cell_of(individual)
            if cell is None or cell in seen_cells:
                tiers[id(individual)] = 1
            else:
                seen_cells.add(cell)
                tiers[id(individual)] = 0

        def guided(individual: "Individual"):
            cell = _cell_of(individual)
            bonus = scale * archive.rarity(cell) if cell is not None else 0.0
            return (-tiers[id(individual)], individual.fitness + bonus)

        # sorted() is stable, so equal guided fitnesses keep population
        # order — deterministic for a fixed seed.
        return sorted(population.individuals, key=guided, reverse=True)

    def immigrant_count(self, slots: int) -> int:
        return min(slots, int(round(self.immigrant_fraction * slots)))

    def immigrants(
        self, archive: BehaviorArchive, count: int, rng: random.Random
    ) -> List[PacketTrace]:
        # Seed from the least-visited cells: the regions the search knows
        # about but has barely explored.  Over-sample the candidate pool so
        # the rng still has choices when several cells tie on visits.
        candidates = [
            elite.trace for elite in archive.least_visited(4 * count) if elite.trace is not None
        ]
        if not candidates:
            return []
        return [rng.choice(candidates).copy() for _ in range(count)]


def make_guidance(
    name: str,
    novelty_weight: float = 1.0,
    immigrant_fraction: float = 0.25,
) -> SearchGuidance:
    """Build a guidance strategy by name."""
    if name == "score":
        return SearchGuidance()
    if name == "novelty":
        return NoveltyGuidance(
            novelty_weight=novelty_weight, immigrant_fraction=immigrant_fraction
        )
    raise ValueError(f"guidance must be one of {GUIDANCE_MODES}, got {name!r}")
