"""CC-Fuzz core: the genetic-algorithm fuzzing loop and its building blocks."""

from .annealing import anneal_link_trace, gaussian_kernel, smooth_timestamps
from .convergence import ConvergenceCriterion
from .fuzzer import CCFuzz, FuzzConfig, MODES
from .islands import IslandModel
from .population import Individual, Population
from .results import FuzzResult, GenerationStats
from .selection import RankSelection, pick_elites

__all__ = [
    "CCFuzz",
    "ConvergenceCriterion",
    "FuzzConfig",
    "FuzzResult",
    "GenerationStats",
    "Individual",
    "IslandModel",
    "MODES",
    "Population",
    "RankSelection",
    "anneal_link_trace",
    "gaussian_kernel",
    "pick_elites",
    "smooth_timestamps",
]
