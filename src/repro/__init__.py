"""CC-Fuzz reproduction: GA-based stress testing of congestion control algorithms.

This package reimplements the system described in "CC-Fuzz: Genetic
algorithm-based fuzzing for stress testing congestion control algorithms"
(Ray & Seshan, HotNets 2022), together with every substrate it needs: a
packet-level discrete-event network simulator, a SACK/delayed-ACK TCP stack
with Linux-style rate sampling, and Reno/CUBIC/BBR congestion control.

Quickstart
----------
>>> from repro import CCFuzz, FuzzConfig, Reno
>>> config = FuzzConfig(mode="traffic", population_size=8, generations=3, duration=2.0)
>>> result = CCFuzz(Reno, config).run()
>>> result.best_fitness >= result.generations[0].best_fitness
True
"""

import importlib
from typing import Any, Callable, Dict, Tuple

__version__ = "1.0.0"

#: Each public name and the subpackage that defines it.  ``import repro``
#: loads no submodule: a process loads only the subsystems it touches.
_EXPORTS = {
    "bbr_bug_evidence": "analysis",
    "compute_metrics": "analysis",
    "bbr_stall_traffic_trace": "attacks",
    "builtin_attack_traces": "attacks",
    "lowrate_attack_trace": "attacks",
    "CampaignRunner": "campaign",
    "CampaignSpec": "campaign",
    "CorpusStore": "campaign",
    "GaBudget": "campaign",
    "NetworkCondition": "campaign",
    "replay_corpus": "campaign",
    "CCFuzz": "core",
    "FuzzConfig": "core",
    "FuzzResult": "core",
    "GenerationStats": "core",
    "Individual": "core",
    "Population": "core",
    "BehaviorArchive": "coverage",
    "BehaviorSignature": "coverage",
    "extract_signature": "coverage",
    "make_guidance": "coverage",
    "EvaluationBackend": "exec",
    "ProcessPoolBackend": "exec",
    "SerialBackend": "exec",
    "TraceCache": "exec",
    "create_backend": "exec",
    "SimulationConfig": "netsim",
    "SimulationResult": "netsim",
    "run_simulation": "netsim",
    "HighDelayScore": "scoring",
    "LowUtilizationScore": "scoring",
    "MinimalTrafficScore": "scoring",
    "RealismScorer": "scoring",
    "ScoreFunction": "scoring",
    "Bbr": "tcp",
    "Cubic": "tcp",
    "Reno": "tcp",
    "LinkTrace": "traces",
    "LinkTraceGenerator": "traces",
    "LossTrace": "traces",
    "PacketTrace": "traces",
    "TrafficTrace": "traces",
    "TrafficTraceGenerator": "traces",
    "dist_packets": "traces",
    "TriageConfig": "triage",
    "TriageReport": "triage",
    "triage_corpus": "triage",
    "triage_trace": "triage",
}

__all__ = [*_EXPORTS, "__version__"]


def _lazy_exports(namespace: Dict[str, Any], exports: Dict[str, str]) -> Tuple[Callable, Callable]:
    """PEP 562 ``__getattr__`` / ``__dir__`` for the package whose globals are
    ``namespace``: each of ``exports`` is imported from its submodule when first read."""
    package = namespace["__name__"]

    def getattr_(name: str) -> Any:
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f".{exports[name]}", package), name)
        namespace[name] = value  # later reads skip this hook
        return value

    return getattr_, lambda: sorted({*namespace, *exports})


__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
