"""Island-model population structure (paper section 4 setup).

The paper runs 20 islands of 25 traces each to preserve solution diversity,
migrating 10 % of each island's traces to the next island every 10
generations.  Islands are arranged in a ring; migrants are copies of an
island's best traces and replace the destination island's worst.
"""

from __future__ import annotations

import random
from typing import List

from .population import Individual, Population

#: Migration runs after every ``MIGRATION_INTERVAL``-th generation and moves
#: ``MIGRATION_FRACTION`` of each island's traces (section 4).
MIGRATION_INTERVAL = 10
MIGRATION_FRACTION = 0.1


class IslandModel:
    """A ring of isolated populations with periodic migration."""

    def __init__(self, islands: List[Population]) -> None:
        if not islands:
            raise ValueError("at least one island is required")
        self.islands = islands
        self.migrations_performed = 0

    def __len__(self) -> int:
        return len(self.islands)

    def __iter__(self):
        return iter(self.islands)

    def all_individuals(self) -> List[Individual]:
        individuals: List[Individual] = []
        for island in self.islands:
            individuals.extend(island.individuals)
        return individuals

    def best(self) -> Individual:
        return max(self.all_individuals(), key=lambda ind: ind.fitness)

    def should_migrate(self, generation: int) -> bool:
        """Migration happens after every ``MIGRATION_INTERVAL``-th generation."""
        if len(self.islands) < 2:
            return False
        return (generation + 1) % MIGRATION_INTERVAL == 0

    def migrate(self, generation: int) -> int:
        """Copy each island's best traces into the next island in the ring.

        Returns the number of migrants moved.  Migrants keep their evaluated
        scores (the simulator is deterministic, so re-evaluation would be
        wasted work) and replace the destination island's worst members.
        """
        count_per_island = max(1, int(round(MIGRATION_FRACTION * len(self.islands[0]))))
        moved = 0
        # Collect migrants first so that migration is simultaneous, not
        # cascading around the ring within a single call.
        migrants_per_island = [island.top(count_per_island) for island in self.islands]
        for index, migrants in enumerate(migrants_per_island):
            destination = self.islands[(index + 1) % len(self.islands)]
            worst = destination.worst_indices(len(migrants))
            for slot, migrant in zip(worst, migrants):
                clone = Individual(
                    trace=migrant.trace.copy(),
                    score=migrant.score,
                    generation_born=generation,
                    origin="migrant",
                    result_summary=dict(migrant.result_summary),
                )
                destination.replace(slot, clone)
                moved += 1
        self.migrations_performed += 1
        return moved
