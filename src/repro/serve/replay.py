"""Memoized replay endpoint: re-simulate corpus entries on demand.

The ROADMAP frames "serving cached replay results at scale" as the heavy
traffic story; this module is that serving path.  A replay request scores a
stored corpus entry against any registered CCA **exactly** like
:func:`repro.campaign.replay.replay_corpus` does — same
``entry.sim_config()``, same score function for the entry's recorded
objective and mode, same :class:`~repro.exec.workers.EvaluationJob` through
the same :class:`~repro.exec.backend.EvaluationBackend` — so an HTTP replay
score is bit-identical to the CLI's (the simulator is deterministic and the
evaluation path is shared, not re-implemented).

Results memoize in a shared thread-safe :class:`~repro.exec.cache.TraceCache`
keyed by the standard ``(schema, trace, cca, sim config, score fn)``
fingerprints, with lookups resolved through
:func:`~repro.exec.batch.evaluate_coalesced` — the one cache-accounting
choke point every other evaluator already uses.  Repeat requests (any
dashboard user clicking the same attack) are pure cache hits that never
touch the simulator.

Derived plotting series (windowed throughput for sparklines) need the full
:class:`~repro.netsim.simulation.SimulationResult`, which the evaluation
path deliberately never returns; they come from one additional local
simulation per ``(entry, cca)`` pair, memoized forever alongside the score.
Determinism makes that series exactly the one the scored run produced.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

from ..campaign.corpus import CorpusEntry, CorpusReader, read_corpus_index
from ..campaign.replay import DEFAULT_OBJECTIVE
from ..exec.backend import EvaluationBackend, SerialBackend
from ..exec.batch import evaluate_coalesced
from ..exec.cache import CacheKey, TraceCache, cca_identity, make_cache_key
from ..exec.workers import EvaluationJob, simulate_packet_trace
from ..scoring.objectives import make_score_function
from ..tcp.cca import cca_factory

#: Averaging window for the throughput sparkline series (seconds).
SERIES_WINDOW_S = 0.25


class ReplayService:
    """Serves (and memoizes) corpus-entry replays for the dashboard."""

    def __init__(
        self,
        corpus_dir: str,
        backend: Optional[EvaluationBackend] = None,
        cache: Optional[TraceCache] = None,
    ) -> None:
        self.corpus_dir = str(corpus_dir)
        self.backend = backend if backend is not None else SerialBackend()
        self.cache = cache if cache is not None else TraceCache(thread_safe=True)
        #: cache key -> derived series payload (same lifetime as the cache
        #: entry would have — the service's cache is unbounded by default).
        self._series: Dict[CacheKey, Dict[str, Any]] = {}
        self._lock = threading.Lock()
        #: Memoizes entries (reloading a trace per request would dominate
        #: cached-replay latency) and reads files as asked, so later ones serve.
        self._corpus = CorpusReader(self.corpus_dir)

    # ------------------------------------------------------------------ #
    # Job assembly (the replay_corpus contract, factored per entry)
    # ------------------------------------------------------------------ #

    def _load_entry(self, fingerprint: str) -> Optional[CorpusEntry]:
        try:
            return self._corpus.get(fingerprint)
        except KeyError:
            return None

    @staticmethod
    def _job_for(entry: CorpusEntry, cca: str) -> Tuple[EvaluationJob, CacheKey]:
        factory = cca_factory(cca)
        sim_config = entry.sim_config()
        score_function = make_score_function(
            entry.objective or DEFAULT_OBJECTIVE, entry.mode
        )
        job = EvaluationJob(factory, sim_config, entry.trace, score_function)
        key = make_cache_key(
            entry.fingerprint,
            cca_identity(factory()),
            sim_config.fingerprint(),
            score_function.fingerprint(),
        )
        return job, key

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #

    def replay(self, fingerprint: str, cca: str) -> Optional[Dict[str, Any]]:
        """Score ``fingerprint`` against ``cca``; ``None`` if no such entry.

        Raises ``ValueError`` for an unknown CCA name (the server maps that
        to a 400, distinct from the entry 404).
        """
        entry = self._load_entry(fingerprint)
        if entry is None:
            return None
        job, key = self._job_for(entry, cca)
        hits_before = self.cache.hits
        outcomes, simulations, _ = evaluate_coalesced(
            [job], [key], self.backend.evaluate_batch, self.cache
        )
        score, summary = outcomes[0]
        return {
            "fingerprint": entry.fingerprint,
            "cca": cca,
            "mode": entry.mode,
            "objective": entry.objective or DEFAULT_OBJECTIVE,
            "scenario_id": entry.scenario_id,
            "origin_cca": entry.cca,
            "original_score": entry.score,
            "score": score.to_dict(),
            "delta": (score.total - entry.score) if entry.score is not None else None,
            "summary": summary,
            "cached": simulations == 0 and self.cache.hits > hits_before,
            "series": self._derive_series(entry, cca, key),
        }

    def _derive_series(
        self, entry: CorpusEntry, cca: str, key: CacheKey
    ) -> Dict[str, Any]:
        """Windowed-throughput series for the entry under ``cca``.

        The one extra simulation per (entry, cca) pair described in the
        module docstring; every later request for the same pair is a dict
        lookup (the memo shares the evaluation cache's key).
        """
        with self._lock:
            cached = self._series.get(key)
        if cached is not None:
            return cached
        result = simulate_packet_trace(
            cca_factory(cca), entry.sim_config(), entry.trace
        )
        series = {
            "window_s": SERIES_WINDOW_S,
            "windowed_throughput": [
                [round(t, 4), round(mbps, 4)]
                for t, mbps in result.windowed_throughput(window=SERIES_WINDOW_S)
            ],
        }
        with self._lock:
            self._series.setdefault(key, series)
        return series

    def warm(self, cca: str, mode: Optional[str] = None) -> Dict[str, Any]:
        """Pre-populate the cache for every entry against ``cca``.

        The bulk path behind a "replay everything" dashboard action and the
        cold half of the serving benchmark: one coalesced batch through the
        backend, so a process pool parallelises it like any fuzzing batch.
        Series are *not* derived here — they stay lazy per clicked entry.
        """
        index = read_corpus_index(self.corpus_dir)
        jobs: List[EvaluationJob] = []
        keys: List[CacheKey] = []
        fingerprints: List[str] = []
        for fingerprint, row in sorted(index.items()):
            if mode is not None and row.get("mode") != mode:
                continue
            entry = self._load_entry(fingerprint)
            if entry is None:
                continue
            job, key = self._job_for(entry, cca)
            jobs.append(job)
            keys.append(key)
            fingerprints.append(fingerprint)
        outcomes, simulations, hits = evaluate_coalesced(
            jobs, keys, self.backend.evaluate_batch, self.cache
        )
        return {
            "cca": cca,
            "entries": len(jobs),
            "simulations": simulations,
            "cache_hits": hits,
            "scores": {
                fingerprint: score.total
                for fingerprint, (score, _) in zip(fingerprints, outcomes)
            },
        }

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            series = len(self._series)
        return {"cache": self.cache.stats(), "series_memoized": series}

    def close(self) -> None:
        self.backend.close()
