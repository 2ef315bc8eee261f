"""CC-Fuzz reproduction: GA-based stress testing of congestion control algorithms.

This package reimplements the system described in "CC-Fuzz: Genetic
algorithm-based fuzzing for stress testing congestion control algorithms"
(Ray & Seshan, HotNets 2022), together with every substrate it needs: a
packet-level discrete-event network simulator, a SACK/delayed-ACK TCP stack
with Linux-style rate sampling, and Reno/CUBIC/BBR congestion control.

Imports
-------
Each public name has one import path.  This package serves the documented
API from one ``{name: module}`` table (PEP 562), importing a module when one
of its names is first read; every other name is imported from the module
that defines it.  The other packages' ``__init__`` modules re-export nothing,
except :mod:`repro.campaign`'s own lazy table and
:mod:`repro.journal`'s ``CampaignJournal``.  Every ``status`` poll and CLI
call is a fresh interpreter, so each process loads only what its command
runs, and ``import repro`` loads no submodule.  One rule keeps it honest: a
module that every campaign run needs is imported when the runner is built,
never deferred into ``run()``.
Deferring it would only move its cost past the benchmark's warm-up into the
first round, and pool workers fork after the parent has loaded the
simulator, so nothing they need may wait until after the fork.

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

#: Each public name and the module that defines it.  ``import repro``
#: loads no submodule: a process loads only the modules it touches.
_EXPORTS = {
    "verdict_table": "analysis.findings",
    "compute_metrics": "analysis.metrics",
    "format_table": "analysis.reporting",
    "bbr_bug_evidence": "analysis.timeline",
    "builtin_attack_traces": "attacks",
    "bbr_stall_traffic_trace": "attacks.bbr_stall",
    "lowrate_attack_trace": "attacks.lowrate",
    "CorpusStore": "campaign.corpus",
    "replay_corpus": "campaign.replay",
    "CampaignRunner": "campaign.scheduler",
    "CampaignSpec": "campaign.spec",
    "GaBudget": "campaign.spec",
    "NetworkCondition": "campaign.spec",
    "CCFuzz": "core.fuzzer",
    "FuzzConfig": "core.fuzzer",
    "Individual": "core.population",
    "Population": "core.population",
    "FuzzResult": "core.results",
    "GenerationStats": "core.results",
    "BehaviorArchive": "coverage.archive",
    "make_guidance": "coverage.guidance",
    "BehaviorSignature": "coverage.signature",
    "extract_signature": "coverage.signature",
    "EvaluationBackend": "exec.backend",
    "ProcessPoolBackend": "exec.backend",
    "SerialBackend": "exec.backend",
    "create_backend": "exec.backend",
    "TraceCache": "exec.cache",
    "SimulationConfig": "netsim.simulation",
    "SimulationResult": "netsim.simulation",
    "run_simulation": "netsim.simulation",
    "ScoreFunction": "scoring.base",
    "HighDelayScore": "scoring.performance",
    "LowUtilizationScore": "scoring.performance",
    "RealismScorer": "scoring.realism",
    "MinimalTrafficScore": "scoring.trace_score",
    "Bbr": "tcp.cca.bbr",
    "Cubic": "tcp.cca.cubic",
    "Reno": "tcp.cca.reno",
    "dist_packets": "traces.distpackets",
    "LinkTraceGenerator": "traces.generator",
    "TrafficTraceGenerator": "traces.generator",
    "LinkTrace": "traces.trace",
    "LossTrace": "traces.trace",
    "PacketTrace": "traces.trace",
    "TrafficTrace": "traces.trace",
    "TriageConfig": "triage.pipeline",
    "TriageReport": "triage.pipeline",
    "triage_corpus": "triage.pipeline",
    "triage_trace": "triage.pipeline",
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
