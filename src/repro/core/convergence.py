"""Stopping criteria for the genetic search."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

#: Least rise in best fitness that counts as progress for ``patience``.
MIN_IMPROVEMENT = 1e-6


@dataclass
class ConvergenceCriterion:
    """Decides when the genetic loop should stop.

    The loop stops when any of the enabled conditions holds:

    * ``max_generations`` reached,
    * best fitness has not improved by more than :data:`MIN_IMPROVEMENT` for
      ``patience`` consecutive generations,
    * best fitness reached ``target_fitness``.
    """

    max_generations: int = 50
    patience: Optional[int] = None
    target_fitness: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_generations <= 0:
            raise ValueError("max_generations must be positive")
        self._best: Optional[float] = None
        self._stale_generations = 0

    def update(self, generation: int, best_fitness: float) -> bool:
        """Record this generation's best fitness; return True when converged."""
        if self.target_fitness is not None and best_fitness >= self.target_fitness:
            return True
        if self._best is None or best_fitness > self._best + MIN_IMPROVEMENT:
            self._best = max(best_fitness, self._best if self._best is not None else best_fitness)
            self._stale_generations = 0
        else:
            self._stale_generations += 1
        if self.patience is not None and self._stale_generations >= self.patience:
            return True
        return generation + 1 >= self.max_generations

    @property
    def stale_generations(self) -> int:
        return self._stale_generations

    # ------------------------------------------------------------------ #
    # Checkpoint serialisation
    # ------------------------------------------------------------------ #

    def state_dict(self) -> Dict[str, object]:
        """Mutable progress state (the configuration lives in the fields)."""
        return {"best": self._best, "stale_generations": self._stale_generations}

    def load_state(self, state: Dict[str, object]) -> None:
        best = state["best"]
        self._best = float(best) if best is not None else None  # type: ignore[arg-type]
        self._stale_generations = int(state["stale_generations"])  # type: ignore[arg-type]
