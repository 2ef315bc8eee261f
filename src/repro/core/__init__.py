"""CC-Fuzz core: the genetic-algorithm fuzzing loop and its building blocks."""

from .fuzzer import CCFuzz, FuzzConfig, MODES
from .islands import IslandModel
from .population import Individual, Population
from .results import FuzzResult, GenerationStats
from .selection import RankSelection, pick_elites

__all__ = [
    "CCFuzz",
    "FuzzConfig",
    "FuzzResult",
    "GenerationStats",
    "Individual",
    "IslandModel",
    "MODES",
    "Population",
    "RankSelection",
    "pick_elites",
]
