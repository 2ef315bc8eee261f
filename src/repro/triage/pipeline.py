"""The triage pipeline: minimize → validate robustness → compare CCAs.

``triage_trace`` turns one raw attack trace into a :class:`TriageReport`;
``triage_corpus`` runs the pipeline over a whole attack corpus, storing each
minimized variant back as a provenance-linked corpus entry (``origin
"triage"``, ``derived_from`` pointing at the raw find) with the robustness
and differential verdicts attached as triage metadata.  Originals are
annotated too, which is what makes corpus triage idempotent: re-running
``repro-campaign triage`` only processes entries that have never been
triaged.

All three engines share one :class:`Evaluator` — one backend pool, one
cache — so triaging a corpus right after a campaign reuses the campaign's
simulations wherever fingerprints line up.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..campaign.corpus import DEFAULT_OBJECTIVE, CorpusStore
from ..exec.backend import EvaluationBackend
from ..exec.batch import Evaluator
from ..exec.cache import TraceCache
from ..netsim.simulation import SimulationConfig
from ..scoring.objectives import make_score_function
from ..tcp.cca import cca_factory
from ..traces.trace import PacketTrace
from .differential import DifferentialConfig, DifferentialReport, compare_ccas
from .evaluation import TraceScorer
from .minimize import MinimizationResult, MinimizeConfig, minimize_trace
from .robustness import RobustnessConfig, RobustnessReport, validate_robustness

#: CCA used to triage traces without a recorded discovery CCA.
DEFAULT_CCA = "reno"

ProgressCallback = Callable[[str], None]


@dataclass
class TriageConfig:
    """Configuration of the whole pipeline (engines can be toggled off)."""

    minimize: MinimizeConfig = field(default_factory=MinimizeConfig)
    robustness: RobustnessConfig = field(default_factory=RobustnessConfig)
    differential: DifferentialConfig = field(default_factory=DifferentialConfig)
    run_minimize: bool = True
    run_robustness: bool = True
    run_differential: bool = True


@dataclass
class TriageReport:
    """Everything triage learned about one trace."""

    fingerprint: str
    cca: str
    objective: str
    mode: str
    baseline_score: float
    baseline_summary: Dict[str, Any]
    triaged_trace: PacketTrace             #: the minimized trace (or the original)
    minimization: Optional[MinimizationResult]
    robustness: Optional[RobustnessReport]
    differential: Optional[DifferentialReport]
    simulations: int
    cache_hits: int
    wall_time_s: float

    def metadata(self) -> Dict[str, Any]:
        """The compact verdict stored as corpus triage metadata."""
        payload: Dict[str, Any] = {
            "cca": self.cca,
            "objective": self.objective,
            "baseline_score": self.baseline_score,
        }
        if self.minimization is not None:
            payload["events_before"] = self.minimization.events_before
            payload["events_after"] = self.minimization.events_after
            payload["achieved_retention"] = round(self.minimization.achieved_retention, 4)
        if self.robustness is not None:
            payload["robustness_score"] = round(self.robustness.robustness_score, 4)
        if self.differential is not None:
            payload["classification"] = self.differential.classification
            payload["most_vulnerable"] = self.differential.most_vulnerable
        return payload

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "cca": self.cca,
            "objective": self.objective,
            "mode": self.mode,
            "baseline_score": self.baseline_score,
            "baseline_summary": dict(self.baseline_summary),
            "triaged_trace": self.triaged_trace.to_dict(),
            "minimization": self.minimization.to_dict() if self.minimization else None,
            "robustness": self.robustness.to_dict() if self.robustness else None,
            "differential": self.differential.to_dict() if self.differential else None,
            "simulations": self.simulations,
            "cache_hits": self.cache_hits,
            "wall_time_s": round(self.wall_time_s, 2),
        }


def triage_trace(
    trace: PacketTrace,
    *,
    cca: str = DEFAULT_CCA,
    objective: str = DEFAULT_OBJECTIVE,
    sim_config: Optional[SimulationConfig] = None,
    backend: Optional[EvaluationBackend] = None,
    cache: Optional[TraceCache] = None,
    config: Optional[TriageConfig] = None,
) -> TriageReport:
    """Run the full triage pipeline on one trace.

    The robustness and differential engines analyse the *minimized* trace
    (when minimization is enabled): the minimal pattern is the claim worth
    validating, and it is also the cheapest to re-simulate across the matrix.
    """
    if trace.mode is None:
        # Nothing to simulate: a failed evaluation would be scored, not raised.
        raise TypeError(f"trace type {type(trace).__name__} has no fuzzing mode")
    config = config or TriageConfig()
    started = time.perf_counter()
    if sim_config is None:
        sim_config = SimulationConfig(duration=trace.duration)
    factory = cca_factory(cca)
    score_function = make_score_function(objective, trace.mode)
    if cache is None:
        # The engines deliberately revisit traces (the minimizer's baseline,
        # the robustness matrix's unperturbed cell, repeated candidates), so
        # triage always runs memoized, like the fuzzer does.
        cache = TraceCache(max_entries=8192)
    evaluator = Evaluator(backend=backend, cache=cache)
    scorer = TraceScorer(factory, sim_config, score_function, evaluator=evaluator)

    baseline, baseline_summary = scorer.outcomes([trace])[0]
    baseline_score = baseline.total
    minimization: Optional[MinimizationResult] = None
    subject = trace
    if config.run_minimize:
        # The minimizer's own baseline lookup is a cache hit on the outcome
        # above, so this costs no extra simulation.
        minimization = minimize_trace(trace, scorer, config.minimize)
        subject = minimization.minimized

    robustness: Optional[RobustnessReport] = None
    if config.run_robustness:
        robustness = validate_robustness(
            subject,
            factory,
            sim_config,
            score_function,
            evaluator=evaluator,
            config=config.robustness,
        )

    differential: Optional[DifferentialReport] = None
    if config.run_differential:
        differential = compare_ccas(
            subject,
            sim_config,
            score_function,
            evaluator=evaluator,
            config=config.differential,
        )

    return TriageReport(
        fingerprint=trace.fingerprint(),
        cca=cca,
        objective=objective,
        mode=trace.mode,
        baseline_score=baseline_score,
        baseline_summary=baseline_summary,
        triaged_trace=subject,
        minimization=minimization,
        robustness=robustness,
        differential=differential,
        simulations=evaluator.simulations,
        cache_hits=evaluator.cache_hits,
        wall_time_s=time.perf_counter() - started,
    )


# --------------------------------------------------------------------------- #
# Corpus triage
# --------------------------------------------------------------------------- #


@dataclass
class CorpusTriageRow:
    """One corpus entry's trip through the pipeline."""

    fingerprint: str
    scenario_id: str
    report: TriageReport
    minimized_fingerprint: str
    stored: bool                           #: a new minimized entry was written

    def as_dict(self) -> Dict[str, Any]:
        summary = {
            "fingerprint": self.fingerprint[:12],
            "scenario": self.scenario_id,
            "stored": self.stored,
        }
        summary.update(self.report.metadata())
        return summary


@dataclass
class CorpusTriageResult:
    """Outcome of triaging a whole corpus."""

    rows: List[CorpusTriageRow]
    skipped: int                           #: entries already triaged (or triage output)
    remaining: int                         #: untriaged entries left out by a limit
    simulations: int
    cache_hits: int
    wall_time_s: float

    @property
    def stored(self) -> int:
        return sum(1 for row in self.rows if row.stored)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "triaged": len(self.rows),
            "skipped": self.skipped,
            "remaining": self.remaining,
            "stored": self.stored,
            "simulations": self.simulations,
            "cache_hits": self.cache_hits,
            "wall_time_s": round(self.wall_time_s, 2),
            "rows": [row.as_dict() for row in self.rows],
        }


def triage_corpus(
    corpus: CorpusStore,
    *,
    backend: Optional[EvaluationBackend] = None,
    cache: Optional[TraceCache] = None,
    config: Optional[TriageConfig] = None,
    default_cca: str = DEFAULT_CCA,
    limit: Optional[int] = None,
    force: bool = False,
    progress: Optional[ProgressCallback] = None,
) -> CorpusTriageResult:
    """Triage every untriaged corpus entry in place.

    Each entry is triaged against the CCA and network condition it was
    discovered under (falling back to ``default_cca`` / defaults for curated
    and imported entries).  Minimized variants that actually shrank are
    stored as new entries with ``origin="triage"`` and ``derived_from``
    linking back; the original is annotated with the verdict either way.
    ``force`` re-triages entries already carrying a verdict (e.g. after an
    earlier run with some engines skipped); triage output itself is never
    re-triaged.
    """
    config = config or TriageConfig()
    emit = progress or (lambda message: None)
    started = time.perf_counter()
    if cache is None:
        # Entries minimize toward similar reduced forms (and triage re-scores
        # corpus traces the campaign may already have evaluated when a
        # campaign cache is injected); a default cache still pays off within
        # one corpus pass.
        cache = TraceCache(max_entries=16384)
    simulations = 0
    cache_hits = 0

    # Selection runs on the index alone — re-running over an already-triaged
    # corpus must not read any entry (trace) files just to skip them all.
    # Pre-triage index rows carry neither key, which correctly reads as
    # untriaged.
    untriaged: List[str] = []
    skipped = 0
    for fingerprint, row in sorted(corpus.index_rows().items()):
        if row.get("origin") == "triage" or (row.get("triaged") and not force):
            skipped += 1
        else:
            untriaged.append(fingerprint)
    # skipped counts only genuinely-triaged entries: with --limit, the rest
    # stays untriaged and is reported as such, not as already done.
    pending = untriaged if limit is None else untriaged[:limit]

    rows: List[CorpusTriageRow] = []
    for fingerprint in pending:
        entry = corpus.get(fingerprint)
        cca = entry.cca or default_cca
        objective = entry.objective or DEFAULT_OBJECTIVE
        report = triage_trace(
            entry.trace,
            cca=cca,
            objective=objective,
            sim_config=entry.sim_config(),
            backend=backend,
            cache=cache,
            config=config,
        )
        simulations += report.simulations
        cache_hits += report.cache_hits
        stored = False
        minimized_fingerprint = fingerprint
        if report.minimization is not None and report.minimization.reduced:
            minimized = report.minimization.minimized
            minimized_fingerprint = minimized.fingerprint()
            stored = corpus.add(
                minimized,
                scenario_id=f"triage/{fingerprint[:12]}",
                cca=cca,
                objective=objective,
                score=report.minimization.minimized_score,
                origin="triage",
                campaign=entry.campaign,
                condition=dict(entry.condition),
                derived_from=fingerprint,
                triage=report.metadata(),
            )
        corpus.annotate_triage(
            fingerprint,
            dict(report.metadata(), minimized_fingerprint=minimized_fingerprint),
        )
        # Published per entry: a killed triage keeps every verdict it finished.
        corpus.fold()
        row = CorpusTriageRow(
            fingerprint=fingerprint,
            scenario_id=entry.scenario_id,
            report=report,
            minimized_fingerprint=minimized_fingerprint,
            stored=stored,
        )
        rows.append(row)
        verdict = report.metadata()
        emit(
            f"[{entry.scenario_id or fingerprint[:12]}] "
            f"{verdict.get('events_before', '?')} -> {verdict.get('events_after', '?')} events, "
            f"robustness={verdict.get('robustness_score', 'n/a')}, "
            f"{verdict.get('classification', 'n/a')}"
            + (" (stored)" if stored else "")
        )

    return CorpusTriageResult(
        rows=rows,
        skipped=skipped,
        remaining=len(untriaged) - len(pending),
        simulations=simulations,
        cache_hits=cache_hits,
        wall_time_s=time.perf_counter() - started,
    )
