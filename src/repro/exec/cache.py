"""Memoization of trace evaluations.

The simulator is deterministic, so ``(trace, CCA, simulation config)``
uniquely determines the outcome.  :class:`TraceCache` exploits that to avoid
re-simulating traces the search has already seen: elites cloned into the next
generation, migrants copied between islands, and duplicate offspring (the
mutation operators regenerate *one side* of a split, so identical children
recur surprisingly often late in a converged run).

Keys combine the cached-value schema version (:data:`OUTCOME_SCHEMA`) with
four stable fingerprints — :meth:`PacketTrace.fingerprint`, the
variant-aware CCA identity (:func:`cca_identity`),
:meth:`SimulationConfig.fingerprint` and :meth:`ScoreFunction.fingerprint` —
so one cache can be shared across fuzzing runs against different CCAs,
configs or scoring objectives without collisions, and an outcome produced
under an older value layout is never misread.
"""

from __future__ import annotations

import contextlib
import hashlib
import threading
import weakref
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from ..netsim.simulation import CcaFactory
from ..obs.metrics import get_registry
from ..scoring.base import Score, stable_state
from .workers import EvaluationJob

#: Version of the cached *value* layout.  v2 outcomes carry ``episodes`` and
#: ``behavior_signature`` in the summary; folding the version into every key
#: guarantees a cache populated by an older layout (e.g. one persisted or
#: shared across processes in the future) can never serve a value the
#: coverage subsystem would misread.
OUTCOME_SCHEMA = "o2"

#: Cache key: (outcome schema, trace fp, cca identity, sim fp, score fp).
CacheKey = Tuple[str, str, str, str, str]


def make_cache_key(
    trace_fingerprint: str, cca_key: str, sim_fingerprint: str, score_fingerprint: str
) -> CacheKey:
    """Assemble a cache key from precomputed fingerprints.

    The single place that knows the key layout; :func:`job_cache_key` is its
    one producer, so a future layout or schema change cannot leave a call
    site mixing layouts in a shared cache.
    """
    return (OUTCOME_SCHEMA, trace_fingerprint, cca_key, sim_fingerprint, score_fingerprint)


def cca_identity(cca: Any) -> str:
    """Stable identity of a freshly-constructed CCA instance.

    ``cca.name`` alone is not enough: variant factories like
    ``partial(Bbr, probe_rtt_on_rto=True)`` share the class-level name while
    behaving differently, so keying on the name alone would serve one
    variant's scores to the other.  Hashing the initial attribute state
    (which the constructor arguments determine) distinguishes every variant.
    """
    # CCAs were built with ``_sender=None``; recorded identities hash that term.
    state = sorted(dict(vars(cca), _sender=None).items())
    attrs = ",".join(f"{name}={stable_state(value, 0)}" for name, value in state)
    canonical = f"{type(cca).__qualname__}({attrs})"
    digest = hashlib.blake2b(canonical.encode("utf-8"), digest_size=8).hexdigest()
    return f"{cca.name}:{digest}"


#: factory -> identity of the instances it builds.  Weak keys: a discarded
#: ``partial`` takes its entry with it.
_FACTORY_IDENTITIES: "weakref.WeakKeyDictionary[CcaFactory, str]" = weakref.WeakKeyDictionary()


def factory_identity(cca_factory: CcaFactory) -> str:
    """:func:`cca_identity` of what ``cca_factory`` builds, constructed once.

    A factory is the unit every evaluation names its CCA by, and it always
    builds the same variant, so its identity is computed on first use and
    remembered for the life of the factory object.
    """
    try:
        identity = _FACTORY_IDENTITIES.get(cca_factory)
    except TypeError:  # unhashable / not weak-referenceable: just compute
        return cca_identity(cca_factory())
    if identity is None:
        identity = _FACTORY_IDENTITIES[cca_factory] = cca_identity(cca_factory())
    return identity


def job_cache_key(job: EvaluationJob) -> CacheKey:
    """The cache key of one :class:`~repro.exec.workers.EvaluationJob`.

    The one derivation of "what fixes an outcome": the trace, the CCA the
    factory builds, the simulation config and the score function, each by
    its own memoized fingerprint.
    """
    return make_cache_key(
        job.trace.fingerprint(),
        factory_identity(job.cca_factory),
        job.sim_config.fingerprint(),
        job.score_function.fingerprint(),
    )


#: Cached value: the score plus the result summary dict.
CachedOutcome = Tuple[Score, Dict[str, Any]]


class TraceCache:
    """LRU memo of ``(trace, cca, sim config) -> (Score, summary)``.

    ``hits``/``misses`` count :meth:`get` outcomes exactly; callers that
    satisfy a lookup from work already in flight (an in-batch duplicate)
    should call :meth:`record_coalesced_hit` so the hit rate reflects every
    avoided simulation.

    ``thread_safe=True`` serialises every operation behind an ``RLock`` so
    one cache can be shared by several threads (the dashboard's replay
    service is called from request threads); the default
    lock-free mode keeps single-run lookups overhead-free.

    Checkpointing is incremental: :meth:`delta_since` returns the ordered log
    of touches since a mark (a put, or a hit that moved an entry in a bounded
    cache) and :meth:`apply_delta` replays such a log, reproducing entries,
    LRU order and evictions exactly.  Touches are only logged once a first
    :meth:`delta_since` / :meth:`apply_delta` has asked for them, and the log
    is trimmed at every mark, so a cache nobody checkpoints pays nothing and
    a bounded cache stays bounded.  Marks are positions in *one* consumer's
    log (the campaign journal's fold); a cache serves one such consumer.
    """

    def __init__(self, max_entries: Optional[int] = None, thread_safe: bool = False) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive (or None for unbounded)")
        self.max_entries = max_entries
        self.thread_safe = thread_safe
        self._lock = threading.RLock() if thread_safe else contextlib.nullcontext()
        self._entries: "OrderedDict[CacheKey, CachedOutcome]" = OrderedDict()
        #: Touches since op ``_log_base``: ``(key,)`` for a reordering hit,
        #: ``(key, score, summary)`` for a put.  ``None`` until a checkpoint
        #: consumer exists.
        self._log: Optional[List[tuple]] = None
        self._log_base = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------ #
    # Lookup / insertion
    # ------------------------------------------------------------------ #

    def get(self, key: CacheKey) -> Optional[CachedOutcome]:
        """Return the cached outcome, counting the hit or miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                get_registry().inc("cache.misses")
                return None
            self.hits += 1
            get_registry().inc("cache.hits")
            if self.max_entries is not None:
                # Recency order only matters for bounded LRU eviction; the
                # (default) unbounded cache skips the per-hit reordering.
                self._touch(key)
            score, summary = entry
            return score, dict(summary)

    def peek(self, key: CacheKey) -> Optional[CachedOutcome]:
        """The cached outcome, or ``None``: counts nothing, moves nothing and
        logs nothing, so a checkpoint restore that reads outcomes back leaves
        the cache exactly as the uninterrupted run had it."""
        with self._lock:
            entry = self._entries.get(key)
            return None if entry is None else (entry[0], dict(entry[1]))

    def put(self, key: CacheKey, score: Score, summary: Dict[str, Any]) -> None:
        with self._lock:
            evicted = self._store(key, score, dict(summary))
            if evicted:
                self.evictions += evicted
                get_registry().inc("cache.evictions", evicted)

    def _touch(self, key: CacheKey) -> None:
        """Mark ``key`` most recently used (a logged op: it moves eviction order)."""
        self._entries.move_to_end(key)
        if self._log is not None:
            self._log.append((key,))

    def _store(self, key: CacheKey, score: Score, summary: Dict[str, Any]) -> int:
        """Insert an entry, evicting past ``max_entries``; returns evictions."""
        self._entries[key] = (score, summary)
        if self._log is not None:
            self._log.append((key, score, summary))
        evicted = 0
        if self.max_entries is not None:
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                evicted += 1
        return evicted

    def record_coalesced_hit(self) -> None:
        """Count a lookup satisfied by an identical evaluation already in flight."""
        with self._lock:
            self.hits += 1
            get_registry().inc("cache.hits")

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without a simulation (0.0 when unused)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "lookups": self.lookups,
                "hit_rate": round(self.hit_rate, 4),
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            # Positions in the op log mean nothing once entries are gone; the
            # next delta_since() starts over from a full image.
            self._log = None
            self._log_base = 0

    # ------------------------------------------------------------------ #
    # Checkpoint serialisation
    # ------------------------------------------------------------------ #

    def _payload(self, base: int, ops: List[tuple]) -> Dict[str, Any]:
        return {
            "schema": OUTCOME_SCHEMA,
            "base": base,
            "ops": [
                [list(op[0])] if len(op) == 1 else [list(op[0]), op[1].to_dict(), op[2]]
                for op in ops
            ],
            "counters": {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            },
        }

    def dump(self) -> Dict[str, Any]:
        """JSON-safe full image: the delta from ``base`` 0.

        One put per entry in LRU order plus the absolute counters, so a
        restored cache re-creates not only the memoized outcomes but the
        exact ``hits``/``misses`` accounting — elite clones served from a
        warm cache must count identically to the uninterrupted run.
        """
        with self._lock:
            return self._payload(
                0, [(key, score, summary) for key, (score, summary) in self._entries.items()]
            )

    def delta_since(self, mark: int) -> Tuple[Dict[str, Any], int]:
        """Touches since ``mark`` as ``(payload, new_mark)``.

        ``payload`` is ``{"schema", "base", "ops", "counters"}``: ``ops`` is
        the ordered log — a put is ``[key, score, summary]``, a hit that
        moved an entry of a bounded cache is ``[key]`` — ``base`` counts the
        ops logged before it and ``counters`` are absolute, so replaying
        payloads in ``base`` order reproduces entries, LRU order, evictions
        and hit/miss counts exactly.  Journal checkpoints carry this, which
        keeps a checkpoint's cost proportional to the work since the last
        one.  Returned ops are forgotten; pass ``new_mark`` next time (start
        from 0).  A mark this cache cannot serve (nothing logged yet, or
        already forgotten) yields the full :meth:`dump` image at ``base`` 0,
        which a positional fold applies as a fresh start.
        """
        with self._lock:
            offset = mark - self._log_base
            if self._log is None or not 0 <= offset <= len(self._log):
                payload = self.dump()
            else:
                payload = self._payload(mark, self._log[offset:])
            self._log = []
            self._log_base = new_mark = payload["base"] + len(payload["ops"])
            return payload, new_mark

    def apply_delta(self, payload: Dict[str, Any]) -> int:
        """Replay a :meth:`delta_since` payload; returns the mark after it.

        Raises ``ValueError`` for a payload from another outcome schema or
        layout, one that does not continue exactly where this cache's op log
        ends, or one logged by a cache with a larger ``max_entries``.
        """
        ops = payload.get("ops")
        if payload.get("schema") != OUTCOME_SCHEMA or not isinstance(ops, list):
            raise ValueError(
                f"cache delta (schema {payload.get('schema')!r}) is not an "
                f"{OUTCOME_SCHEMA!r} op log"
            )
        with self._lock:
            position = self._log_base + len(self._log or ())
            if payload.get("base") != position:
                raise ValueError(
                    f"cache delta starts at op {payload.get('base')!r}, cache is at op {position}"
                )
            if self._log is None:
                self._log = []
            for op in ops:
                key = tuple(op[0])
                if len(op) == 1:
                    if key not in self._entries:
                        raise ValueError(f"cache delta touches an entry this cache evicted: {key}")
                    self._touch(key)
                else:
                    self._store(key, Score.from_dict(op[1]), dict(op[2]))
            counters = payload.get("counters", {})
            self.hits = int(counters.get("hits", 0))
            self.misses = int(counters.get("misses", 0))
            self.evictions = int(counters.get("evictions", 0))
            return position + len(ops)

    def restore(self, payload: Dict[str, Any]) -> int:
        """Replace contents and counters with a :meth:`dump` image (or any
        folded delta from ``base`` 0); returns the mark to checkpoint from.

        A payload :meth:`apply_delta` rejects leaves the cache empty.
        """
        with self._lock:
            self.clear()
            try:
                return self.apply_delta(payload)
            except ValueError:
                self.clear()
                raise
