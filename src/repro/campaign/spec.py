"""Declarative campaign specifications and scenario-matrix expansion.

A campaign spec is a plain dict (usually loaded from JSON) naming *what* to
sweep — CCAs, fuzzing modes, objectives and network conditions — plus one GA
budget shared by every cell.  :meth:`CampaignSpec.expand` takes the cross
product in a fixed order, so a spec always produces the same scenario list,
and every scenario derives a stable per-scenario GA seed from the campaign
seed and its own identity (adding a CCA to a spec never reshuffles the
randomness of the scenarios that were already there).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from ..core.fuzzer import MODES, FuzzConfig
from ..coverage.guidance import GUIDANCE_MODES
from ..exec.backend import create_backend
from ..exec.faults import FaultPolicy
from ..netsim.simulation import SimulationConfig
from ..scoring.objectives import OBJECTIVES
from ..tcp.cca import CCA_FACTORIES


#: The JSON values a field of each declared type takes (``bool`` is no number).
_JSON_TYPES = {"str": str, "int": int, "float": (int, float), "GaBudget": dict,
               "NetworkCondition": dict}


def _json_type_ok(annotation: str, value: Any) -> bool:
    if annotation.startswith("Optional["):
        return value is None or _json_type_ok(annotation[9:-1], value)
    if annotation.startswith("List["):
        return isinstance(value, list) and all(_json_type_ok(annotation[5:-1], v) for v in value)
    return not isinstance(value, bool) and isinstance(value, _JSON_TYPES[annotation])


def _json_fields(cls: type, payload: Any, what: str) -> Dict[str, Any]:
    """``payload`` as ``cls``'s fields: a JSON object of known keys, each
    holding the JSON type its field declares, or a ``ValueError`` naming it."""
    if not isinstance(payload, dict):
        raise ValueError(f"{what} must be a JSON object, got {json.dumps(payload)}")
    fields = cls.__dataclass_fields__
    unknown = sorted(set(payload) - set(fields))
    if unknown:
        raise ValueError(f"unknown {what} keys: {', '.join(unknown)}")
    for key, value in payload.items():
        if not _json_type_ok(fields[key].type, value):
            raise ValueError(
                f"{what} key {key!r} must be {fields[key].type}, got {json.dumps(value)}"
            )
    return dict(payload)


@dataclass(frozen=True)
class NetworkCondition:
    """One bottleneck configuration of the dumbbell topology."""

    name: str = "base"
    bottleneck_rate_mbps: float = 12.0
    queue_capacity: int = 60
    propagation_delay: float = 0.02

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("condition name must be non-empty")
        # The ranges are SimulationConfig's: validate by building what a
        # condition feeds (any valid duration will do).
        self.sim_config(duration=1.0)

    def sim_config(self, duration: float) -> SimulationConfig:
        """A ``duration``-second simulation of this bottleneck.

        The one condition -> :class:`SimulationConfig` mapping: a scenario's
        and a stored corpus entry's simulations are both built here, so they
        share a ``sim_fingerprint`` (and therefore cache keys).  No campaign,
        triage or dashboard code reads the per-ACK series, so none is recorded.
        """
        return SimulationConfig(
            duration=duration,
            bottleneck_rate_mbps=self.bottleneck_rate_mbps,
            queue_capacity=self.queue_capacity,
            propagation_delay=self.propagation_delay,
            record_series=False,
        )

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "NetworkCondition":
        return cls(**_json_fields(cls, payload, "network condition"))


@dataclass(frozen=True)
class GaBudget:
    """The genetic-search budget applied to every scenario of a campaign."""

    population_size: int = 8
    generations: int = 5
    islands: int = 1
    duration: float = 3.0
    top_k: int = 5

    def __post_init__(self) -> None:
        # The ranges are FuzzConfig's: validate by building what a budget feeds.
        FuzzConfig(**asdict(self))

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "GaBudget":
        return cls(**_json_fields(cls, payload, "GA budget"))


@dataclass(frozen=True)
class Scenario:
    """One cell of the campaign matrix: fuzz ``cca`` in ``mode`` for
    ``objective`` under ``condition`` with the campaign's GA budget."""

    campaign: str
    cca: str
    mode: str
    objective: str
    condition: NetworkCondition
    budget: GaBudget
    seed: int
    guidance: str = "score"                #: search-guidance strategy for this cell

    @property
    def scenario_id(self) -> str:
        return f"{self.cca}/{self.mode}/{self.objective}/{self.condition.name}"

    def sim_config(self) -> SimulationConfig:
        return self.condition.sim_config(self.budget.duration)

    def fuzz_config(self) -> FuzzConfig:
        """The :class:`FuzzConfig` for this cell.

        The backend named here is irrelevant when the campaign scheduler
        injects its shared backend object into :class:`CCFuzz`; it only
        matters for running a scenario standalone.
        """
        return FuzzConfig(
            mode=self.mode,
            population_size=self.budget.population_size,
            generations=self.budget.generations,
            islands=self.budget.islands,
            top_k=self.budget.top_k,
            duration=self.budget.duration,
            average_rate_mbps=self.condition.bottleneck_rate_mbps,
            seed=self.seed,
            sim=self.sim_config(),
            guidance=self.guidance,
        )

    def describe(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario_id,
            "cca": self.cca,
            "mode": self.mode,
            "objective": self.objective,
            "condition": self.condition.to_dict(),
            "seed": self.seed,
            "guidance": self.guidance,
        }


def _scenario_seed(campaign_seed: int, scenario_id: str) -> int:
    """Stable per-scenario GA seed: independent of matrix position."""
    digest = hashlib.blake2b(
        f"{campaign_seed}:{scenario_id}".encode("utf-8"), digest_size=4
    ).hexdigest()
    return int(digest, 16)


#: How long an idle fleet worker sleeps before re-polling for claimable scenarios.
DEFAULT_POLL_S = 0.25


@dataclass
class CampaignSpec:
    """A full campaign: the axes of the scenario matrix plus shared settings."""

    name: str = "campaign"
    ccas: List[str] = field(default_factory=lambda: ["reno", "cubic", "bbr"])
    modes: List[str] = field(default_factory=lambda: ["traffic"])
    objectives: List[str] = field(default_factory=lambda: ["throughput"])
    conditions: List[NetworkCondition] = field(default_factory=lambda: [NetworkCondition()])
    budget: GaBudget = field(default_factory=GaBudget)
    seed: int = 0
    backend: str = "serial"
    workers: Optional[int] = None
    seed_limit: int = 4                    #: max corpus seeds injected per scenario
    #: Search-guidance strategy every scenario runs under.  "score" keeps the
    #: classic fitness-only campaign; "novelty"/"elites" schedule a
    #: behavior-coverage campaign over the shared archive.
    guidance: str = "score"
    #: Scenario-lease time-to-live (seconds) for fleet workers: a worker that
    #: misses heartbeats this long is presumed dead and its scenario stolen.
    lease_ttl: float = 30.0
    #: Per-evaluation wall-clock limit (seconds); enforced by the process
    #: backend, which kills and replaces the worker running an overdue job.
    job_timeout: Optional[float] = None
    #: How often a job whose pool worker died is retried (with exponential
    #: backoff) before being failed and quarantined as a worker-killer.
    max_retries: int = 2

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("campaign name must be non-empty")
        for axis, values in (("ccas", self.ccas), ("modes", self.modes),
                             ("objectives", self.objectives), ("conditions", self.conditions)):
            if not values:
                raise ValueError(f"campaign {axis} must be non-empty")
            if len(values) != len(set(getattr(v, "name", v) for v in values)):
                raise ValueError(f"campaign {axis} contains duplicates")
        for cca in self.ccas:
            if cca not in CCA_FACTORIES:
                known = ", ".join(sorted(CCA_FACTORIES))
                raise ValueError(f"unknown CCA {cca!r} (known: {known})")
        for mode in self.modes:
            if mode not in MODES:
                raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        for objective in self.objectives:
            if objective not in OBJECTIVES:
                raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
        if self.seed_limit < 0:
            raise ValueError("seed_limit must be non-negative")
        if self.guidance not in GUIDANCE_MODES:
            raise ValueError(
                f"guidance must be one of {GUIDANCE_MODES}, got {self.guidance!r}"
            )
        if self.lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        # Validate the execution values early, before any run, by building
        # what they feed (pools start lazily, so nothing is spawned).
        create_backend(
            self.backend, self.workers, FaultPolicy(self.job_timeout, self.max_retries)
        )

    # ------------------------------------------------------------------ #
    # Matrix expansion
    # ------------------------------------------------------------------ #

    def expand(self) -> List[Scenario]:
        """The scenario matrix, in deterministic cca-major order."""
        scenarios: List[Scenario] = []
        for cca in self.ccas:
            for mode in self.modes:
                for objective in self.objectives:
                    for condition in self.conditions:
                        scenario_id = f"{cca}/{mode}/{objective}/{condition.name}"
                        scenarios.append(
                            Scenario(
                                campaign=self.name,
                                cca=cca,
                                mode=mode,
                                objective=objective,
                                condition=condition,
                                budget=self.budget,
                                seed=_scenario_seed(self.seed, scenario_id),
                                guidance=self.guidance,
                            )
                        )
        return scenarios

    @property
    def scenario_count(self) -> int:
        return len(self.ccas) * len(self.modes) * len(self.objectives) * len(self.conditions)

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "ccas": list(self.ccas),
            "modes": list(self.modes),
            "objectives": list(self.objectives),
            "conditions": [condition.to_dict() for condition in self.conditions],
            "budget": self.budget.to_dict(),
            "seed": self.seed,
            "backend": self.backend,
            "workers": self.workers,
            "seed_limit": self.seed_limit,
            "guidance": self.guidance,
            "lease_ttl": self.lease_ttl,
            "job_timeout": self.job_timeout,
            "max_retries": self.max_retries,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CampaignSpec":
        data = _json_fields(cls, payload, "campaign spec")
        if "conditions" in data:
            data["conditions"] = [
                NetworkCondition.from_dict(item) for item in data["conditions"]
            ]
        if "budget" in data:
            data["budget"] = GaBudget.from_dict(data["budget"])
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        return cls.from_dict(json.loads(text))
