"""The CC-Fuzz genetic search loop (paper Fig. 1).

``CCFuzz`` evolves a population of network traces against a congestion
control algorithm.  Each generation:

1. every trace is scored by simulating the CCA against it,
2. the best trace of each island survives unchanged (``FuzzConfig.k_elite``),
3. 30 % of the next generation (``FuzzConfig.crossover_fraction``) comes
   from splicing parent pairs chosen with rank-proportional probability (in
   the modes that have a crossover operator — not link, section 3.2),
4. the remainder are mutations of rank-selected parents,
5. islands pass 10 % of their traces on every 10 generations
   (:mod:`repro.core.islands`).

The loop runs for ``generations`` generations.  These rules are the
paper's section-4 constants; :class:`FuzzConfig` holds only what a campaign
scenario sets, and a link trace's rate is the simulated bottleneck's.  Each
constant lives in the module whose rule it is: ``FuzzConfig.k_elite`` and
``crossover_fraction``; ``MIGRATION_INTERVAL`` and ``MIGRATION_FRACTION``
(:mod:`repro.core.islands`); DIST_PACKETS' ``DEFAULT_K_AGG`` and
``DEFAULT_RATE_BOUND`` (:mod:`repro.traces.distpackets`); the loss cap
``MAX_LOSSES`` (:mod:`repro.traces.generator`); novelty's ``NOVELTY_WEIGHT``
and ``IMMIGRANT_FRACTION`` (:mod:`repro.coverage.guidance`).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import get_registry

from ..coverage.archive import BehaviorArchive
from ..coverage.guidance import GUIDANCE_MODES, make_guidance
from ..coverage.signature import signature_from_summary
from ..exec.backend import EvaluationBackend, SerialBackend
from ..exec.batch import Evaluator
from ..exec.cache import CachedOutcome, TraceCache, factory_identity, make_cache_key
from ..exec.workers import EvaluationJob
from ..netsim.packet import MSS_BYTES
from ..netsim.simulation import CcaFactory, SimulationConfig
from ..scoring.base import Score, ScoreFunction
from ..scoring.objectives import make_score_function
from ..traces.constraints import may_join_population
from ..traces.crossover import CROSSOVER_OPERATORS, crossover_traces
from ..traces.distpackets import DEFAULT_K_AGG
from ..traces.generator import (
    MAX_LOSSES,
    LinkTraceGenerator,
    LossTraceGenerator,
    TrafficTraceGenerator,
)
from ..traces.mutation import mutate_trace
from ..traces.trace import MODES, PacketTrace, pack_le, unpack_le
from .islands import IslandModel
from .population import Individual, Population
from .results import FuzzResult, GenerationStats
from .selection import RankSelection, pick_elites

ProgressCallback = Callable[[GenerationStats], None]

#: Called after every evaluated generation with a JSON-safe snapshot of the
#: full mid-run state (see :meth:`CCFuzz._snapshot`); the campaign journal
#: persists these so a killed run can resume bit-identically.  A fuzzer with
#: a cache names each outcome the cache holds by its trace alone, so such a
#: snapshot resumes only into a cache restored to the same point.
CheckpointCallback = Callable[[Dict[str, object]], None]

#: Version of the snapshot layout produced by :meth:`CCFuzz._snapshot`.  2
#: leaves out the score and result summary of every individual whose outcome
#: the cache holds; 1 (still read) carried every outcome inline.
SNAPSHOT_SCHEMA = 2

#: CCA identities a snapshot may carry from before BBR stopped keeping its
#: write-only per-ACK history -> the identity of the same variant today.
LEGACY_CCA_KEYS = {
    "bbr:b4f5965904a87a51": "bbr:36361303b618935d",    # bbr
    "bbr:9354513ba3fd266a": "bbr:cd7ded59cf1641e7",    # bbr-fixed
}


@dataclass
class FuzzConfig:
    """Configuration of a fuzzing run: what a campaign scenario sets.

    Defaults are laptop-scale; :meth:`paper_defaults` returns the exact
    section-4 setup (500 traces across 20 islands).  The rest of the
    paper's GA is fixed: ``k_elite`` and ``crossover_fraction`` here, the
    migration rule in :mod:`repro.core.islands`, the trace shape in
    :mod:`repro.traces`, the novelty blend in :mod:`repro.coverage.guidance`.
    A campaign always caches evaluations; ``use_cache=False`` is the
    library's uncached reference.
    """

    mode: str = "traffic"
    population_size: int = 20              #: traces per island
    generations: int = 15
    islands: int = 1
    seed: Optional[int] = 0
    top_k: int = 20                        #: size of the "top traces" aggregate (Fig. 4d)

    # ``duration`` is also the simulation's: pass it here or as
    # ``sim.duration`` (5 s when neither is given).
    duration: Optional[float] = None
    max_traffic_packets: Optional[int] = None

    use_cache: bool = True                 #: memoize (trace, cca, sim) -> score

    # Behavior-coverage guidance.  "score" (default) is the paper's pure
    # fitness search and stays bit-identical to the pre-coverage fuzzer;
    # "novelty" blends archive rarity into selection and immigrates from
    # under-covered cells.
    guidance: str = "score"

    # Simulation parameters.
    # Fuzzing evaluations only consume the monitor's derived series and the
    # sender's aggregate counters, so per-ACK cwnd/pacing/RTT time-series
    # recording is off by default; pass an explicit SimulationConfig
    # (e.g. ``paper_defaults``) to record them.
    sim: Optional[SimulationConfig] = None

    #: The paper's GA (section 4): one elite per island, 30 % crossovers.
    k_elite: ClassVar[int] = 1
    crossover_fraction: ClassVar[float] = 0.3

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if self.generations < 1:
            raise ValueError("generations must be at least 1")
        if self.islands < 1:
            raise ValueError("islands must be at least 1")
        if self.top_k < 1:
            raise ValueError("top_k must be at least 1")
        if self.guidance not in GUIDANCE_MODES:
            raise ValueError(
                f"guidance must be one of {GUIDANCE_MODES}, got {self.guidance!r}"
            )
        # One duration, from whichever of the two the caller set; both set
        # must agree.  SimulationConfig states the duration's range.
        if self.sim is None:
            duration = 5.0 if self.duration is None else self.duration
            self.sim = SimulationConfig(duration=duration, record_series=False)
        elif self.duration is not None and self.duration != self.sim.duration:
            raise ValueError(
                f"duration={self.duration} disagrees with sim.duration={self.sim.duration}"
            )
        self.duration = self.sim.duration

    @property
    def average_rate_mbps(self) -> float:
        """The simulated bottleneck's rate: a link trace's rate and the
        basis of the default cross-traffic budget."""
        return self.sim.bottleneck_rate_mbps

    @property
    def total_population(self) -> int:
        return self.population_size * self.islands

    @classmethod
    def paper_defaults(cls, mode: str = "traffic", **overrides) -> "FuzzConfig":
        """The exact GA setup from section 4 of the paper.

        500 traces, 20 islands (25 traces each); the elite, crossover and
        migration rules are the paper's already.
        """
        params = dict(mode=mode, population_size=25, islands=20, generations=50)
        params.update(overrides)
        # The paper's simulation, at the overridden duration if there is one.
        paper_sim = SimulationConfig.paper_defaults()
        duration = params.get("duration", paper_sim.duration)
        params.setdefault("sim", paper_sim.with_overrides(duration=duration))
        return cls(**params)


class CCFuzz:
    """Genetic-algorithm fuzzer for congestion control algorithms.

    Batched-evaluation lifecycle
    ----------------------------
    Each generation the fuzzer gathers **every** unevaluated individual
    across **all** islands into one batch, then:

    1. wraps each trace in an :class:`~repro.exec.EvaluationJob` and hands the
       batch to the run's :class:`~repro.exec.Evaluator`, which looks each
       job up in the :class:`~repro.exec.TraceCache` — elites, migrants and
       duplicate offspring resolve there without a simulation, and identical
       traces within the batch are coalesced into one job — and runs the
       misses on the injected :class:`~repro.exec.EvaluationBackend` (an
       in-process ``SerialBackend`` when none is), which may execute in any
       order but must return in input order;
    2. writes the ``(Score, summary)`` outcomes back onto the individuals.

    Results are bit-identical across backends for a fixed seed: the
    simulator consumes no randomness, and all mutation/crossover/selection
    randomness is drawn from ``self.rng`` in the coordinating process, never
    in workers.  ``total_evaluations`` counts actual backend executions,
    i.e. cache misses.
    """

    def __init__(
        self,
        cca_factory: CcaFactory,
        config: Optional[FuzzConfig] = None,
        score_function: Optional[ScoreFunction] = None,
        seed_traces: Optional[Sequence[PacketTrace]] = None,
        backend: Optional[EvaluationBackend] = None,
        cache: Optional[TraceCache] = None,
        archive: Optional[BehaviorArchive] = None,
    ) -> None:
        self.cca_factory = cca_factory
        self.config = config or FuzzConfig()
        # Default: the low-utilisation objective every front door calls "throughput".
        self.score_function = score_function or make_score_function(
            "throughput", self.config.mode
        )
        self.seed_traces = list(seed_traces or [])
        self.rng = random.Random(self.config.seed)
        self.total_evaluations = 0
        self.cache_hits = 0
        self._injected_seed_fingerprints: List[str] = []
        self._selection = RankSelection(self.rng)
        # The behavior archive is maintained for every run (cheap: signatures
        # ride along in evaluation summaries), so even a default score-guided
        # run reports its behavioral coverage; only non-"score" guidance lets
        # the archive influence selection.  An injected archive (the campaign
        # scheduler's) accumulates cells across runs.
        self.archive = archive if archive is not None else BehaviorArchive()
        self.new_cells = 0                 #: archive cells this run discovered
        self._guidance = make_guidance(self.config.guidance)
        # An injected backend is owned by the caller and is not closed after
        # run(); without one a run evaluates in-process.
        self._injected_backend = backend
        if cache is not None:
            self.cache = cache
        elif self.config.use_cache:
            # Bounded so multi-hour runs cannot grow memory without limit;
            # LRU keeps the hot entries (recent elites, migrants, duplicates).
            self.cache = TraceCache(max_entries=max(4096, 8 * self.config.total_population))
        else:
            self.cache = None
        self._cca_name: Optional[str] = None
        self._sim_fingerprint = self.config.sim.fingerprint()
        self._score_fingerprint = self.score_function.fingerprint()

    # ------------------------------------------------------------------ #
    # Defaults
    # ------------------------------------------------------------------ #

    def _make_generator(self, seed: int, k_agg: float = DEFAULT_K_AGG, scale: float = 1.0):
        """Trace generator for the configured mode.

        ``k_agg``/``scale`` override the paper's burstiness and the packet
        budget: the coverage-guided exploration restarts sweep generator
        regimes the initial population never samples (sparse low-rate
        traces, maximally bursty traces), because that is where untouched
        behavior cells live.  The initial population always uses the
        defaults.
        """
        cfg = self.config
        if cfg.mode == "link":
            return LinkTraceGenerator(
                duration=cfg.duration,
                average_rate_mbps=cfg.average_rate_mbps,
                k_agg=k_agg,
                seed=seed,
            )
        if cfg.mode == "traffic":
            max_packets = cfg.max_traffic_packets
            if max_packets is None:
                # Default budget: enough cross traffic to fully displace the
                # flow for roughly half the run.
                max_packets = int(
                    round(cfg.average_rate_mbps * 1e6 / (8 * MSS_BYTES) * cfg.duration / 2)
                )
            return TrafficTraceGenerator(
                duration=cfg.duration,
                max_packets=max(1, int(round(max_packets * scale))),
                k_agg=k_agg,
                seed=seed,
            )
        return LossTraceGenerator(
            duration=cfg.duration,
            max_losses=max(1, int(round(MAX_LOSSES * scale))),
            seed=seed,
        )

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #

    @property
    def cca_name(self) -> str:
        """Display name of the CCA under test."""
        if self._cca_name is None:
            self._cca_name = self.cca_factory().name
        return self._cca_name

    @property
    def cca_key(self) -> str:
        """Variant-aware CCA identity used in cache keys.

        Distinguishes e.g. ``Bbr`` from ``partial(Bbr, probe_rtt_on_rto=True)``
        so a cache shared across runs never serves one variant's scores to
        another.
        """
        return factory_identity(self.cca_factory)

    def _cached_outcome(self, trace: PacketTrace) -> Optional[CachedOutcome]:
        """This run's outcome for ``trace`` if the cache holds it (a peek)."""
        if self.cache is None:
            return None
        return self.cache.peek(make_cache_key(
            trace.fingerprint(), self.cca_key, self._sim_fingerprint, self._score_fingerprint
        ))

    @staticmethod
    def _apply_outcome(individual: Individual, score: Score, summary: Dict[str, object]) -> None:
        individual.score = score
        individual.result_summary = dict(summary)

    def _evaluate_generation(
        self, evaluator: Evaluator, model: IslandModel, generation: int
    ) -> Tuple[int, int]:
        """Evaluate every pending individual across all islands in one batch.

        Returns ``(simulations_run, cache_hits)``.
        """
        pending = [ind for island in model.islands for ind in island.unevaluated()]
        if not pending:
            return 0, 0
        jobs = [
            EvaluationJob(self.cca_factory, self.config.sim, ind.trace, self.score_function)
            for ind in pending
        ]
        outcomes, simulations, hits = evaluator.evaluate_counted(jobs)
        for individual, (score, summary) in zip(pending, outcomes):
            self._apply_outcome(individual, score, summary)
            self._observe_behavior(individual, generation)
        self.total_evaluations += simulations
        self.cache_hits += hits
        return simulations, hits

    def _observe_behavior(self, individual: Individual, generation: int) -> None:
        """Fold one evaluated individual into the behavior archive.

        Draws no randomness and never feeds back into selection under the
        default "score" guidance, so maintaining the archive keeps runs
        bit-identical to the pre-coverage fuzzer.  Outcomes that carry no
        signature (failure outcomes, a test's fake backend) are skipped.
        """
        signature = signature_from_summary(individual.result_summary)
        if signature is None:
            return
        outcome = self.archive.observe(
            signature,
            individual.fitness,
            individual.trace.fingerprint(),
            trace=individual.trace,
            provenance={
                "cca": self.cca_name,
                "mode": self.config.mode,
                "generation": generation,
                "origin": individual.origin,
                "objective": self._score_fingerprint,
            },
        )
        if outcome == "new":
            self.new_cells += 1

    # ------------------------------------------------------------------ #
    # Generation construction
    # ------------------------------------------------------------------ #

    def _mutate(self, trace: PacketTrace) -> PacketTrace:
        return mutate_trace(trace, self.rng, max_losses=MAX_LOSSES)

    def _crossover_count(self) -> int:
        if self.config.mode not in CROSSOVER_OPERATORS:
            return 0
        available = self.config.population_size - self.config.k_elite
        return min(available, int(round(self.config.crossover_fraction * self.config.population_size)))

    def _compatible_immigrant(self, trace: PacketTrace) -> bool:
        """Whether an archive trace can join this run's population.

        A shared (campaign-level) archive holds elites from other fuzzing
        modes, durations and link rates; the same rule that admits corpus
        seeds decides which of them are injectable.
        """
        cfg = self.config
        return may_join_population(
            trace.mode,
            trace.duration,
            trace.average_rate_mbps,
            into_mode=cfg.mode,
            into_duration=cfg.duration,
            link_rate_mbps=cfg.average_rate_mbps,
        )

    def _next_generation(self, population: Population, generation: int) -> Population:
        cfg = self.config
        ranked = self._guidance.rank(population, self.archive)
        next_population = Population()

        # With the cache enabled, elite clones are left unevaluated and served
        # from the cache next generation (a counted hit, never a simulation);
        # without it they carry their scores forward as before.
        carry_scores = self.cache is None
        for elite in pick_elites(ranked, cfg.k_elite):
            survivor = Individual(
                trace=elite.trace.copy(),
                score=elite.score if carry_scores else None,
                generation_born=elite.generation_born,
                origin="elite",
                result_summary=dict(elite.result_summary) if carry_scores else {},
            )
            next_population.add(survivor)

        crossover_count = self._crossover_count()
        for parent_a, parent_b in self._selection.select_pairs(ranked, crossover_count):
            child_trace = crossover_traces(parent_a.trace, parent_b.trace, self.rng)
            next_population.add(
                Individual(trace=child_trace, generation_born=generation, origin="crossover")
            )

        # Archive immigrants take offspring slots before mutations are drawn
        # (never elite slots); only non-"score" guidance requests any, so the
        # default path reaches select_many with an untouched rng.  Half of the
        # immigrant slots are *exploration restarts* — fresh generator draws —
        # because mutants of known elites mostly land in already-filled cells,
        # while fresh traces sample the whole behavior space the way the
        # initial generation did.
        slots = cfg.population_size - len(next_population)
        immigrant_traces: List[PacketTrace] = []
        fresh_traces: List[PacketTrace] = []
        wanted = self._guidance.immigrant_count(slots)
        if wanted:
            fresh_count = wanted // 2
            immigrant_traces = [
                trace
                for trace in self._guidance.immigrants(
                    self.archive, wanted - fresh_count, self.rng
                )
                if self._compatible_immigrant(trace)
            ][: wanted - fresh_count]
            # Each restart draws from a different generator regime: sparse
            # and smooth through dense and maximally bursty.
            for _ in range(fresh_count):
                generator = self._make_generator(
                    seed=self.rng.randrange(2**31),
                    k_agg=self.rng.choice((0.01, 0.05, 0.2, 0.5)),
                    scale=self.rng.choice((0.1, 0.3, 1.0)),
                )
                fresh_traces.append(generator.generate())

        mutation_count = slots - len(immigrant_traces) - len(fresh_traces)
        for parent in self._selection.select_many(ranked, mutation_count):
            child_trace = self._mutate(parent.trace)
            next_population.add(
                Individual(trace=child_trace, generation_born=generation, origin="mutation")
            )
        for trace in fresh_traces:
            next_population.add(
                Individual(trace=trace, generation_born=generation, origin="explore")
            )
        for trace in immigrant_traces:
            # Hypermutation: immigrants exist to reach *new* cells, so they
            # take several mutation steps away from their archive elite —
            # single-step mutants mostly land back in the cell they came from.
            mutated = trace
            for _ in range(3):
                mutated = self._mutate(mutated)
            next_population.add(
                Individual(trace=mutated, generation_born=generation, origin="immigrant")
            )
        return next_population

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #

    def _initial_islands(self) -> IslandModel:
        cfg = self.config
        islands: List[Population] = []
        seed_pool = [trace.copy() for trace in self.seed_traces]
        self._injected_seed_fingerprints = []
        base_seed = self.rng.randrange(2**31)
        for island_index in range(cfg.islands):
            generator = self._make_generator(seed=base_seed + island_index)
            individuals: List[Individual] = []
            # Seed traces (if any) are spread round-robin across islands.
            for seed_index, trace in enumerate(seed_pool):
                if seed_index % cfg.islands == island_index and len(individuals) < cfg.population_size:
                    individuals.append(Individual(trace=trace.copy(), origin="seed"))
                    self._injected_seed_fingerprints.append(trace.fingerprint())
            while len(individuals) < cfg.population_size:
                individuals.append(Individual(trace=generator.generate(), origin="initial"))
            islands.append(Population(individuals))
        return IslandModel(islands)

    def _generation_stats(
        self, model: IslandModel, generation: int, evaluations: int, cache_hits: int
    ) -> GenerationStats:
        individuals = model.all_individuals()
        fitnesses = sorted((ind.fitness for ind in individuals), reverse=True)
        top_k = fitnesses[: self.config.top_k]
        best = model.best()
        return GenerationStats(
            generation=generation,
            best_fitness=fitnesses[0],
            mean_fitness=sum(fitnesses) / len(fitnesses),
            top_k_mean_fitness=sum(top_k) / len(top_k),
            best_summary=dict(best.result_summary),
            evaluations=evaluations,
            per_island_best=[island.best().fitness for island in model.islands],
            cache_hits=cache_hits,
            behavior_cells=self.new_cells,
        )

    def _advance(self, model: IslandModel, generation: int) -> int:
        """Construct the next generation (migration + offspring); returns its index.

        All randomness is drawn from ``self.rng``, so re-running this step
        from a restored rng state reproduces the exact populations the
        pre-crash process had built but never evaluated.
        """
        if model.should_migrate(generation):
            model.migrate(generation)
        for index, island in enumerate(model.islands):
            model.islands[index] = self._next_generation(island, generation + 1)
        return generation + 1

    # ------------------------------------------------------------------ #
    # Checkpoint / resume
    # ------------------------------------------------------------------ #

    def _snapshot(
        self,
        model: IslandModel,
        history: List[GenerationStats],
        generation: int,
        converged: bool,
    ) -> Dict[str, object]:
        """JSON-safe snapshot of everything :meth:`run` needs to continue."""
        version, internal, gauss = self.rng.getstate()
        return {
            "schema": SNAPSHOT_SCHEMA,
            "config": {
                "mode": self.config.mode,
                "population_size": self.config.population_size,
                "islands": self.config.islands,
                "generations": self.config.generations,
                "seed": self.config.seed,
                "guidance": self.config.guidance,
            },
            "identity": {
                "cca_key": self.cca_key,
                "sim_fingerprint": self._sim_fingerprint,
                "score_fingerprint": self._score_fingerprint,
            },
            "generation": generation,
            "converged": converged,
            "rng_state": [version, pack_le(internal, "I"), gauss],
            "total_evaluations": self.total_evaluations,
            "cache_hits": self.cache_hits,
            "new_cells": self.new_cells,
            "seed_fingerprints": list(self._injected_seed_fingerprints),
            "migrations_performed": model.migrations_performed,
            "islands": [
                [self._individual_payload(individual) for individual in island]
                for island in model.islands
            ],
            "history": [stats.to_dict() for stats in history],
        }

    def _individual_payload(self, individual: Individual) -> Dict[str, object]:
        """An individual's outcome goes by reference when the cache holds it
        (the cache's op log journals it already), inline otherwise."""
        payload = individual.to_dict()
        cached = self._cached_outcome(individual.trace)
        if cached is not None and cached[0] == individual.score:
            del payload["score"], payload["result_summary"]
        return payload

    def _restore_individual(self, payload: Dict[str, object]) -> Individual:
        individual = Individual.from_dict(payload)
        if "score" not in payload:
            cached = self._cached_outcome(individual.trace)
            if cached is None:
                raise ValueError("snapshot names an outcome the evaluation cache does not hold")
            self._apply_outcome(individual, *cached)
        return individual

    def _restore(
        self, state: Dict[str, object]
    ) -> Tuple[IslandModel, List[GenerationStats], int, bool]:
        """Rebuild mid-run state from a :meth:`_snapshot` payload.  Older
        snapshots also carry ``criterion``, the progress of an early-stopping
        rule no campaign could enable; it is ignored."""
        cfg = self.config
        if state.get("schema") not in (1, SNAPSHOT_SCHEMA):
            raise ValueError(
                f"snapshot schema {state.get('schema')!r} is neither 1 nor {SNAPSHOT_SCHEMA}"
            )
        expected = {
            "mode": cfg.mode,
            "population_size": cfg.population_size,
            "islands": cfg.islands,
            "generations": cfg.generations,
            "seed": cfg.seed,
            "guidance": cfg.guidance,
        }
        recorded = dict(state["config"])  # type: ignore[arg-type]
        # Only the identity keys gate resume: older snapshots also carry the
        # fault-tolerance knobs of the run that wrote them, which may differ.
        if {key: recorded.get(key) for key in expected} != expected:
            raise ValueError(
                f"snapshot was taken under a different configuration: "
                f"{state['config']!r} != {expected!r}"
            )
        identity = dict(state.get("identity", {}))  # type: ignore[arg-type]
        mine = {
            "cca_key": self.cca_key,
            "sim_fingerprint": self._sim_fingerprint,
            "score_fingerprint": self._score_fingerprint,
        }
        if identity.get("sim_fingerprint") == cfg.sim.legacy_fingerprint():
            # Written before ``record_series`` left the simulation identity.
            identity["sim_fingerprint"] = self._sim_fingerprint
        if LEGACY_CCA_KEYS.get(identity.get("cca_key")) == self.cca_key:
            identity["cca_key"] = self.cca_key
        if identity and identity != mine:
            raise ValueError(
                "snapshot was taken against a different CCA / simulation / "
                f"scoring setup: {identity!r} != {mine!r}"
            )
        islands = [
            Population([self._restore_individual(payload) for payload in island])
            for island in state["islands"]  # type: ignore[union-attr]
        ]
        version, internal, gauss = state["rng_state"]  # type: ignore[misc]
        if isinstance(internal, str):  # packed; snapshots before that hold a list
            internal = unpack_le(internal, "I")
        self.rng.setstate((version, tuple(internal), gauss))
        self.total_evaluations = int(state["total_evaluations"])  # type: ignore[arg-type]
        self.cache_hits = int(state["cache_hits"])  # type: ignore[arg-type]
        self.new_cells = int(state["new_cells"])  # type: ignore[arg-type]
        self._injected_seed_fingerprints = [str(fp) for fp in state["seed_fingerprints"]]  # type: ignore[union-attr]
        model = IslandModel(islands)
        model.migrations_performed = int(state["migrations_performed"])  # type: ignore[arg-type]
        history = [GenerationStats.from_dict(payload) for payload in state["history"]]  # type: ignore[union-attr]
        return model, history, int(state["generation"]), bool(state["converged"])  # type: ignore[arg-type]

    def run(
        self,
        progress: Optional[ProgressCallback] = None,
        *,
        checkpoint: Optional[CheckpointCallback] = None,
        resume_from: Optional[Dict[str, object]] = None,
    ) -> FuzzResult:
        """Run the genetic search and return the best traces found.

        ``checkpoint`` fires after every evaluated generation (including the
        converged final one) with a JSON-safe snapshot; ``resume_from``
        restores such a snapshot and continues the search — the resumed run
        is bit-identical to one that was never interrupted, because every
        random draw comes from the snapshotted ``self.rng``.
        """
        cfg = self.config
        if resume_from is not None:
            model, history, generation, converged = self._restore(resume_from)
        else:
            model = self._initial_islands()
            history = []
            generation = 0
            converged = False
        owns_backend = self._injected_backend is None
        backend = SerialBackend() if owns_backend else self._injected_backend
        evaluator = Evaluator(backend, self.cache)
        try:
            if resume_from is not None and not converged:
                # The checkpoint was taken right after evaluating
                # ``generation``; rebuild the successor populations the dead
                # process had constructed (or was constructing) next.
                generation = self._advance(model, generation)
            while not converged:
                # Per-generation telemetry: a handful of counter writes per
                # generation (hundreds of simulations), observational only.
                generation_started = time.perf_counter()
                prior_cells = self.new_cells
                evaluations, cache_hits = self._evaluate_generation(evaluator, model, generation)
                registry = get_registry()
                registry.inc("fuzzer.generations")
                registry.inc("fuzzer.evaluations", evaluations)
                registry.inc("fuzzer.cache_hits", cache_hits)
                registry.inc("fuzzer.new_cells", self.new_cells - prior_cells)
                registry.observe(
                    "fuzzer.generation_wall_s", time.perf_counter() - generation_started
                )
                stats = self._generation_stats(model, generation, evaluations, cache_hits)
                history.append(stats)
                if progress is not None:
                    progress(stats)
                converged = generation + 1 >= cfg.generations
                if checkpoint is not None:
                    checkpoint(self._snapshot(model, history, generation, converged))
                if not converged:
                    generation = self._advance(model, generation)
        finally:
            if owns_backend:
                backend.close()

        best = model.best()
        return FuzzResult(
            mode=cfg.mode,
            cca_name=self.cca_name,
            best_individual=best,
            final_population=model.all_individuals(),
            generations=history,
            total_evaluations=self.total_evaluations,
            converged_generation=generation,
            cache_hits=self.cache_hits,
            cache_stats=dict(self.cache.stats()) if self.cache is not None else {},
            seed_fingerprints=list(self._injected_seed_fingerprints),
            guidance=cfg.guidance,
            behavior_cells=self.new_cells,
            coverage=self.archive.coverage(),
            archive=self.archive,
        )


def restorable(state: Dict[str, Any], cache: TraceCache) -> bool:
    """Whether ``cache`` holds every outcome snapshot ``state`` names by
    reference (a cache restored from a stale dump, or one smaller than the
    population, may not)."""
    identity = state.get("identity") or {}
    fingerprints = [identity.get(name) for name in ("cca_key", "sim_fingerprint", "score_fingerprint")]
    return all(
        make_cache_key(PacketTrace.from_dict(payload["trace"]).fingerprint(), *fingerprints) in cache
        for island in state.get("islands") or []
        for payload in island
        if "score" not in payload
    )
