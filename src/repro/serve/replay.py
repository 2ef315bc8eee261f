"""Memoized replay endpoint: re-simulate corpus entries on demand.

The ROADMAP frames "serving cached replay results at scale" as the heavy
traffic story; this module is that serving path.  A replay request scores a
stored corpus entry against any registered CCA **exactly** like
:func:`repro.campaign.replay.replay_corpus` does — the same
:meth:`~repro.campaign.corpus.CorpusEntry.evaluation_job` through the same
:class:`~repro.exec.batch.Evaluator` — so an HTTP replay score is bit-identical to
the CLI's (the simulator is deterministic and the evaluation path is shared,
not re-implemented).

Results memoize in the evaluator's thread-safe
:class:`~repro.exec.cache.TraceCache` under the standard job key.  Repeat
requests (any dashboard user clicking the same attack) are pure cache hits
that never touch the simulator.

Derived plotting series (windowed throughput for sparklines) need the full
:class:`~repro.netsim.simulation.SimulationResult`, which the evaluation
path deliberately never returns; they come from one additional local
simulation per ``(entry, cca)`` pair, memoized forever alongside the score.
Determinism makes that series exactly the one the scored run produced.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional, Tuple

from ..campaign.corpus import CorpusEntry, CorpusReader
from ..exec.backend import EvaluationBackend
from ..exec.batch import Evaluator
from ..exec.cache import TraceCache
from ..exec.workers import EvaluationJob, simulate_packet_trace
from ..scoring.objectives import DEFAULT_OBJECTIVE

#: Averaging window for the throughput sparkline series (seconds).
SERIES_WINDOW_S = 0.25


class ReplayService:
    """Serves (and memoizes) corpus-entry replays for the dashboard."""

    def __init__(
        self,
        corpus_dir: str,
        backend: Optional[EvaluationBackend] = None,
    ) -> None:
        self.corpus_dir = str(corpus_dir)
        self.cache = TraceCache(thread_safe=True)
        self.evaluator = Evaluator(backend, self.cache)
        #: (entry fingerprint, cca) -> derived series payload (same lifetime
        #: as the cache entry would have — the service's cache is unbounded).
        self._series: Dict[Tuple[str, str], Dict[str, Any]] = {}
        self._lock = threading.Lock()
        #: Memoizes entries (reloading a trace per request would dominate
        #: cached-replay latency) and reads files as asked, so later ones serve.
        self._corpus = CorpusReader(self.corpus_dir)

    def _load_entry(self, fingerprint: str) -> Optional[CorpusEntry]:
        try:
            return self._corpus.get(fingerprint)
        except KeyError:
            return None

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
        job = entry.evaluation_job(cca)
        [(score, summary)], simulations, _ = self.evaluator.evaluate_counted([job])
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
            "cached": simulations == 0,
            "series": self._derive_series(job, (entry.fingerprint, cca)),
        }

    def _derive_series(self, job: EvaluationJob, pair: Tuple[str, str]) -> Dict[str, Any]:
        """Windowed-throughput series for the ``(entry, cca)`` pair ``job`` scores.

        The one extra simulation per pair described in the module docstring;
        every later request for the same pair is a dict lookup.
        """
        with self._lock:
            cached = self._series.get(pair)
        if cached is not None:
            return cached
        result = simulate_packet_trace(job.cca_factory, job.sim_config, job.trace)
        series = {
            "window_s": SERIES_WINDOW_S,
            "windowed_throughput": [
                [round(t, 4), round(mbps, 4)]
                for t, mbps in result.windowed_throughput(window=SERIES_WINDOW_S)
            ],
        }
        with self._lock:
            self._series.setdefault(pair, series)
        return series

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            series = len(self._series)
        return {"cache": self.cache.stats(), "series_memoized": series}

    def close(self) -> None:
        self.evaluator.backend.close()
