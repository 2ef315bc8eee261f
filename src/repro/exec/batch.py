"""Cache-coalesced batch evaluation.

One batch of work often contains the same trace several times (elite clones,
re-injected seeds, duplicate offspring, triage candidates re-derived from the
same reduction) and entries the cache has already seen.  :class:`Evaluator`
resolves a batch against a :class:`TraceCache` with exact accounting:

* the first occurrence of each key does one :meth:`TraceCache.get` (a counted
  hit or miss),
* later in-batch occurrences are coalesced onto the first
  (:meth:`TraceCache.record_coalesced_hit`), and
* only the remaining misses are handed to the backend.

It is the one path from a batch of
:class:`~repro.exec.workers.EvaluationJob` to its outcomes — key each job
(:func:`~repro.exec.cache.job_cache_key`), resolve through the cache, run the
misses on a backend — and every producer of a score or a behavior signature
(the GA, the triage engines, corpus replay, the dashboard's replay
endpoint) calls it, so "simulations run" and "cache hits" mean exactly the
same thing everywhere.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

from .backend import EvaluationBackend, SerialBackend
from .cache import CacheKey, TraceCache, job_cache_key
from .workers import EvaluationJob, EvaluationOutcome


class Evaluator:
    """Evaluates job batches through a backend and an optional cache.

    The backend is caller-owned (never closed here), so one pool can serve a
    whole session — GA generations, minimization rounds, the perturbation
    matrix, a corpus replay — and with a shared cache none of them
    re-simulates what another already scored.
    """

    def __init__(
        self,
        backend: Optional[EvaluationBackend] = None,
        cache: Optional[TraceCache] = None,
    ) -> None:
        self.backend = backend or SerialBackend()
        self.cache = cache
        self.simulations = 0
        self.cache_hits = 0

    def evaluate_counted(
        self, jobs: Sequence[EvaluationJob]
    ) -> Tuple[List[EvaluationOutcome], int, int]:
        """``(outcomes, simulations, hits)`` for this batch, in input order.

        ``simulations`` counts the jobs actually executed (cache misses after
        coalescing) and ``hits`` the lookups served without execution.
        Without a cache every job is executed and nothing is memoized.
        """
        outcomes, simulations, hits = self._resolve(list(jobs))
        self.simulations += simulations
        self.cache_hits += hits
        return outcomes, simulations, hits

    def _resolve(
        self, jobs: List[EvaluationJob]
    ) -> Tuple[List[EvaluationOutcome], int, int]:
        cache = self.cache
        if cache is None:
            return self.backend.evaluate_batch(jobs), len(jobs), 0

        resolved: List[Optional[EvaluationOutcome]] = [None] * len(jobs)
        miss_groups: "OrderedDict[CacheKey, List[int]]" = OrderedDict()
        hits = 0
        for index, job in enumerate(jobs):
            key = job_cache_key(job)
            if key in miss_groups:
                miss_groups[key].append(index)
                cache.record_coalesced_hit()
                hits += 1
                continue
            cached = cache.get(key)
            if cached is not None:
                resolved[index] = cached
                hits += 1
            else:
                miss_groups[key] = [index]

        if miss_groups:
            executed = self.backend.evaluate_batch(
                [jobs[group[0]] for group in miss_groups.values()]
            )
            for (key, group), (score, summary) in zip(miss_groups.items(), executed):
                cache.put(key, score, summary)
                for index in group:
                    resolved[index] = (score, dict(summary))
        return resolved, len(miss_groups), hits  # type: ignore[return-value]

    def evaluate(self, jobs: Sequence[EvaluationJob]) -> List[EvaluationOutcome]:
        """Evaluate jobs in input order, serving repeats from the cache."""
        return self.evaluate_counted(jobs)[0]
