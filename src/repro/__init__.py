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

from .analysis import bbr_bug_evidence, compute_metrics
from .attacks import bbr_stall_traffic_trace, builtin_attack_traces, lowrate_attack_trace
from .campaign import (
    CampaignRunner,
    CampaignSpec,
    CorpusStore,
    GaBudget,
    NetworkCondition,
    replay_corpus,
)
from .core import CCFuzz, FuzzConfig, FuzzResult, GenerationStats, Individual, Population
from .coverage import (
    BehaviorArchive,
    BehaviorSignature,
    extract_signature,
    make_guidance,
)
from .exec import (
    EvaluationBackend,
    ProcessPoolBackend,
    SerialBackend,
    TraceCache,
    create_backend,
)
from .netsim import SimulationConfig, SimulationResult, run_simulation
from .scoring import (
    HighDelayScore,
    LowUtilizationScore,
    MinimalTrafficScore,
    RealismScorer,
    ScoreFunction,
)
from .tcp import Bbr, Cubic, Reno
from .traces import (
    LinkTrace,
    LinkTraceGenerator,
    LossTrace,
    PacketTrace,
    TrafficTrace,
    TrafficTraceGenerator,
    dist_packets,
)
from .triage import TriageConfig, TriageReport, triage_corpus, triage_trace

__version__ = "1.0.0"

__all__ = [
    "Bbr",
    "BehaviorArchive",
    "BehaviorSignature",
    "CCFuzz",
    "CampaignRunner",
    "CampaignSpec",
    "CorpusStore",
    "Cubic",
    "EvaluationBackend",
    "FuzzConfig",
    "FuzzResult",
    "GaBudget",
    "GenerationStats",
    "HighDelayScore",
    "Individual",
    "LinkTrace",
    "LinkTraceGenerator",
    "LossTrace",
    "LowUtilizationScore",
    "MinimalTrafficScore",
    "NetworkCondition",
    "PacketTrace",
    "Population",
    "ProcessPoolBackend",
    "RealismScorer",
    "Reno",
    "ScoreFunction",
    "SerialBackend",
    "SimulationConfig",
    "SimulationResult",
    "TraceCache",
    "TrafficTrace",
    "TrafficTraceGenerator",
    "TriageConfig",
    "TriageReport",
    "bbr_bug_evidence",
    "bbr_stall_traffic_trace",
    "builtin_attack_traces",
    "compute_metrics",
    "create_backend",
    "dist_packets",
    "extract_signature",
    "lowrate_attack_trace",
    "make_guidance",
    "replay_corpus",
    "run_simulation",
    "triage_corpus",
    "triage_trace",
    "__version__",
]
