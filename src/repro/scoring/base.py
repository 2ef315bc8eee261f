"""Scoring interfaces.

A trace's fitness has two components (paper section 3.4):

* the **performance score**, computed from the simulation result, which is
  higher when the CCA behaved worse (low throughput, high delay, ...), and
* the **trace score**, computed from the trace itself, which expresses
  implicit constraints such as "use as few cross-traffic packets as possible".

Both are combined into a single fitness value; the genetic algorithm always
maximises fitness.
"""

from __future__ import annotations

import abc
import hashlib
from dataclasses import dataclass
from typing import Optional

from ..netsim.simulation import SimulationResult
from ..traces.trace import PacketTrace


def stable_state(obj, depth: int) -> str:
    """Deterministic textual state of a configuration object (no addresses).

    Recurses through scalar attributes and list/tuple containers; deeper
    nested objects degrade to their class name, which keeps the output
    stable across processes at the cost of not distinguishing exotic
    deeply-nested configurations.  Also used by
    :func:`repro.exec.cca_identity` to fingerprint CCA variants.
    """
    if isinstance(obj, (bool, int, float, str, type(None))):
        return repr(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(stable_state(item, depth) for item in obj) + "]"
    if depth <= 0 or not hasattr(obj, "__dict__"):
        return type(obj).__qualname__
    attrs = ",".join(
        f"{attr}={stable_state(value, depth - 1)}" for attr, value in sorted(vars(obj).items())
    )
    return f"{type(obj).__qualname__}({attrs})"


@dataclass(frozen=True)
class Score:
    """Fitness of one trace: total = performance + trace component."""

    total: float
    performance: float
    trace: float = 0.0

    def __float__(self) -> float:
        return self.total

    def to_dict(self) -> dict:
        return {"total": self.total, "performance": self.performance, "trace": self.trace}

    @classmethod
    def from_dict(cls, payload: dict) -> "Score":
        return cls(
            total=float(payload["total"]),
            performance=float(payload["performance"]),
            trace=float(payload.get("trace", 0.0)),
        )


class PerformanceScore(abc.ABC):
    """Scores a simulation result; higher means worse CCA behaviour."""

    name: str = "performance"

    @abc.abstractmethod
    def __call__(self, result: SimulationResult) -> float:
        """Return the performance component of the fitness."""


class TraceScore(abc.ABC):
    """Scores a trace's intrinsic desirability (e.g. minimality)."""

    name: str = "trace"

    @abc.abstractmethod
    def __call__(self, trace: PacketTrace, result: Optional[SimulationResult] = None) -> float:
        """Return the trace component of the fitness."""


class ScoreFunction:
    """Combines a performance score and an optional trace score."""

    def __init__(
        self,
        performance: PerformanceScore,
        trace: Optional[TraceScore] = None,
        performance_weight: float = 1.0,
        trace_weight: float = 1.0,
    ) -> None:
        self.performance = performance
        self.trace = trace
        self.performance_weight = performance_weight
        self.trace_weight = trace_weight

    def __call__(self, result: SimulationResult, trace: PacketTrace) -> Score:
        performance_component = self.performance_weight * self.performance(result)
        trace_component = 0.0
        if self.trace is not None:
            trace_component = self.trace_weight * self.trace(trace, result)
        return Score(
            total=performance_component + trace_component,
            performance=performance_component,
            trace=trace_component,
        )

    def fingerprint(self) -> str:
        """Stable identity of this scoring configuration.

        Part of every evaluation-cache key: two runs sharing a cache but
        scoring differently (other components, other weights) must never be
        served each other's fitness values.  Computed once per object —
        score functions are treated as immutable once built, and the cache
        rebuilds its key per lookup.
        """
        cached = self.__dict__.get("_fingerprint_cache")
        if cached is None:
            # Hashed before the memo attribute exists, so it is not part of
            # the state it fingerprints.
            canonical = stable_state(self, depth=3)
            cached = hashlib.blake2b(canonical.encode("utf-8"), digest_size=8).hexdigest()
            self._fingerprint_cache = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        trace_name = self.trace.name if self.trace is not None else "none"
        return f"ScoreFunction(performance={self.performance.name}, trace={trace_name})"
