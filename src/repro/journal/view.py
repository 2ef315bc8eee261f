"""Replay: fold journal records into one consistent campaign view.

The fold is deliberately CRDT-like: records are deduplicated by content and
applied in ``(seq, type, dedup_key)`` order with keyed last-writer-wins (or
max-generation) semantics, so replaying a merged journal gives the same view
regardless of which machine's records came first.

Leases are a real coordination primitive, not a log line: a
``scenario_lease`` record may carry ``worker_id``, ``lease_epoch`` and
``expires_at``; the view tracks the *current* holder per scenario (highest
epoch wins, first writer wins among equal epochs, which keeps legacy
epoch-less leases on their original first-wins semantics).  ``lease_renew``
pushes the current holder's expiry forward and ``lease_release`` retires it.

Fencing: a data record (checkpoint, delta, insert, completion) written under
a lease carries that lease's epoch.  During the fold, a record whose epoch is
*lower* than the highest lease epoch granted at an earlier sequence number is
dropped (counted in ``fenced_records``) — a zombie worker whose lease was
stolen cannot corrupt the view, while everything the victim wrote *before*
the steal stays visible so the thief can resume from its checkpoint.
Records without a ``lease_epoch`` (legacy serial campaigns) are never fenced.

Evaluation caches are journaled as op-deltas (see
:meth:`repro.exec.cache.TraceCache.delta_since`): each checkpoint or
completion carries only the cache touches since the previous one, with
``base`` = how many ops came before.  The fold is positional, per cache — a
record written under a lease belongs to that scenario's private cache, any
other to the one campaign-wide cache: truncate the cache's op log to ``base``,
then extend it.  A generation re-done after a resume or a lease steal
therefore overwrites the ops it replaces instead of duplicating them, and
fencing (applied first) keeps a zombie's ops out altogether.

A checkpoint journals its generation history as its tail; the view keeps
each scenario's whole list (entries for generations before the tail's, then
the tail), so a re-done generation replaces its entry and a full history
replaces the list, at O(tail) per checkpoint.

Traces come by digest (:mod:`repro.journal.codec`): the fold keeps every
record's ``traces`` table, taken before the duplicate and fencing checks —
a trace is its content, so one a fenced zombie brought in is still the right
bytes for the thief that names it — and inflates each payload it applies.
A record that names a trace sorts after the one that brought it in (a
writer's next seq is higher; :func:`repro.journal.log.merge_records` keeps
the order), so one pass in fold order resolves every reference, and a
reader following the file resolves exactly what a from-scratch one does.

The fold can be *continued*: :class:`JournalFold` keeps the view together
with the dedup set, the fencing epochs and the last fold key, so a reader
that follows a growing file (:class:`repro.journal.log.JournalCursor`) folds
each record once.  :func:`replay_records` is the same fold over one batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .codec import inflate
from .events import JournalRecord

#: Event types subject to lease-epoch fencing.
FENCED_EVENT_TYPES = (
    "generation_checkpoint",
    "behavior_delta",
    "corpus_insert",
    "scenario_complete",
    "job_quarantined",
)

#: Version of the ``compaction_snapshot`` payload layout.  2 carries each
#: cache's folded op log under ``caches``; 1 carried one full dump under
#: ``cache_state``, which is no longer read (such a resume starts cold).
SNAPSHOT_VIEW_SCHEMA = 2


def lease_epoch_of(payload: Optional[Dict[str, Any]]) -> int:
    """The lease epoch a payload carries (legacy epoch-less records are 0)."""
    if not payload:
        return 0
    try:
        return int(payload.get("lease_epoch") or 0)
    except (TypeError, ValueError):
        return 0


@dataclass
class JournalView:
    """Consistent state reconstructed from an event log."""

    #: ``campaign_start`` payload (spec, knobs, archive baseline), or ``None``.
    campaign: Optional[Dict[str, Any]] = None
    #: ``campaign_resume`` payloads, in fold order.
    resumes: List[Dict[str, Any]] = field(default_factory=list)
    #: scenario_id -> current-holder ``scenario_lease`` payload (highest
    #: epoch wins; ``lease_renew``/``lease_release`` update it in place).
    leases: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: scenario_id -> latest ``generation_checkpoint`` payload.
    checkpoints: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: ``corpus_insert`` payloads in fold order (the replayable WAL).
    inserts: List[Dict[str, Any]] = field(default_factory=list)
    #: scenario_id -> fingerprint -> latest ``corpus_insert`` payload.
    inserts_by_scenario: Dict[str, Dict[str, Dict[str, Any]]] = field(default_factory=dict)
    #: scenario_id -> ``scenario_complete`` payload.
    completed: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: every ``behavior_delta`` payload in fold order (:meth:`behavior_state`).
    behavior_deltas: List[Dict[str, Any]] = field(default_factory=list)
    #: cache scope -> that cache's folded op log as one ``base``-0 payload
    #: (what ``TraceCache.restore`` takes).  Scope is the scenario id for a
    #: fleet worker's private cache, ``""`` for the campaign-wide one.
    caches: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: latest ``scenario_seeds`` payload (the fleet's journaled seed plan).
    scenario_seeds: Optional[Dict[str, Any]] = None
    #: ``job_quarantined`` payloads in fold order (the quarantine WAL), which
    #: :meth:`repro.campaign.corpus.CorpusReader.apply_journal` applies.
    quarantined: List[Dict[str, Any]] = field(default_factory=list)

    record_count: int = 0
    duplicates: int = 0
    torn_records: int = 0
    #: stale-epoch records dropped by lease fencing.
    fenced_records: int = 0
    #: records folded away by an applied ``compaction_snapshot``.
    compacted_records: int = 0
    last_seq: int = 0

    @property
    def cache_state(self) -> Optional[Dict[str, Any]]:
        """The campaign-wide evaluation cache, if any record carried one."""
        return self.caches.get("")

    def copy(self) -> "JournalView":
        """A view that later folds cannot change.

        Owns every container the fold grows or updates in place (lease
        payloads, cache op lists and checkpoint histories included); the
        record payloads inside are shared with the fold, which only ever
        replaces them, and are not for the caller to mutate.
        """
        return replace(
            self,
            resumes=list(self.resumes),
            leases={sid: dict(lease) for sid, lease in self.leases.items()},
            checkpoints={sid: _own_history(cp) for sid, cp in self.checkpoints.items()},
            inserts=list(self.inserts),
            inserts_by_scenario={
                sid: dict(by_fingerprint)
                for sid, by_fingerprint in self.inserts_by_scenario.items()
            },
            completed=dict(self.completed),
            behavior_deltas=list(self.behavior_deltas),
            caches={scope: _own_ops(payload) for scope, payload in self.caches.items()},
            quarantined=list(self.quarantined),
        )

    def pending_checkpoints(self) -> Dict[str, Dict[str, Any]]:
        """Checkpoints for scenarios that never reached completion."""
        return {
            scenario_id: checkpoint
            for scenario_id, checkpoint in self.checkpoints.items()
            if scenario_id not in self.completed
        }

    def behavior_state(
        self,
        generation_limits: Optional[Dict[str, int]] = None,
        scenario_id: Optional[str] = None,
    ) -> "tuple[Dict[str, Dict[str, Any]], Optional[Dict[str, int]]]":
        """Fold behavior deltas into ``(cells, counters)``.

        ``generation_limits`` maps scenario_id -> highest generation whose
        deltas should apply.  A resumed run passes the in-flight scenario's
        checkpoint generation here (and ``-1`` for scenarios it will restart
        from scratch): deltas are journaled *before* their checkpoint, so a
        kill between the two appends leaves a trailing delta that must be
        dropped — the resumed search re-evaluates that generation and
        re-observes it identically.  ``scenario_id`` keeps only that
        scenario's deltas: the state of the private archive a fleet worker
        ran it on.
        """
        limits = generation_limits or {}
        cells: Dict[str, Dict[str, Any]] = {}
        counters: Optional[Dict[str, int]] = None
        for delta in self.behavior_deltas:
            if scenario_id is not None and delta.get("scenario_id") != scenario_id:
                continue
            limit = limits.get(delta.get("scenario_id", ""))
            if limit is not None and delta.get("generation", 0) > limit:
                continue
            for cell, payload in delta.get("cells", {}).items():
                cells[cell] = payload
            if delta.get("counters") is not None:
                counters = delta["counters"]
        return cells, counters

    # ------------------------------------------------------------------ #
    # Lease state
    # ------------------------------------------------------------------ #

    def lease_holder(self, scenario_id: str, now: float) -> Optional[str]:
        """The worker holding a *live* lease on the scenario, or ``None``.

        A lease is live iff it has not been released and its ``expires_at``
        lies in the future.  Legacy leases without an expiry (the old
        log-line form) never count as a live hold — they predate leases
        meaning anything, so a fleet may claim over them.
        """
        lease = self.leases.get(scenario_id)
        if not lease or lease.get("released"):
            return None
        expires = lease.get("expires_at")
        if expires is None:
            return None
        try:
            if float(expires) <= now:
                return None
        except (TypeError, ValueError):
            return None
        worker = lease.get("worker_id")
        return str(worker) if worker else ""

    def lease_claimable(self, scenario_id: str, now: float) -> bool:
        """Whether a worker may claim the scenario right now."""
        return (
            scenario_id not in self.completed
            and self.lease_holder(scenario_id, now) is None
        )

    def next_lease_epoch(self, scenario_id: str) -> int:
        """The epoch a fresh claim of this scenario must use."""
        return lease_epoch_of(self.leases.get(scenario_id)) + 1

    # ------------------------------------------------------------------ #
    # Query folds (dashboard / reporting)
    # ------------------------------------------------------------------ #

    def outcome_rows(self) -> List[Dict[str, Any]]:
        """Per-completed-scenario rows for ranking tables.

        Splits the scenario id back into its ``cca/mode/objective/condition``
        components (missing components degrade to ``""`` so rows from older
        or hand-built journals still render) and annotates each with the
        number of distinct corpus fingerprints the scenario inserted.
        """
        rows: List[Dict[str, Any]] = []
        for scenario_id in sorted(self.completed):
            record = self.completed[scenario_id]
            # scenario_complete data nests the ScenarioOutcome fields under
            # "outcome"; hand-built or legacy records may carry them flat.
            outcome = record.get("outcome")
            payload = outcome if isinstance(outcome, dict) else record
            parts = str(scenario_id).split("/")
            rows.append(
                {
                    "scenario_id": scenario_id,
                    "cca": parts[0] if len(parts) > 0 else "",
                    "mode": parts[1] if len(parts) > 1 else "",
                    "objective": parts[2] if len(parts) > 2 else "",
                    "condition": parts[3] if len(parts) > 3 else "",
                    "best_fitness": payload.get("best_fitness"),
                    "best_fingerprint": payload.get("best_fingerprint"),
                    "evaluations": payload.get("evaluations", 0),
                    "cache_hits": payload.get("cache_hits", 0),
                    "converged_generation": payload.get("converged_generation"),
                    "new_corpus_entries": payload.get("new_corpus_entries", 0),
                    "behavior_cells": payload.get("behavior_cells", 0),
                    "corpus_inserts": len(
                        self.inserts_by_scenario.get(scenario_id, {})
                    ),
                }
            )
        return rows

    # ------------------------------------------------------------------ #
    # Compaction
    # ------------------------------------------------------------------ #

    def to_snapshot(self) -> Dict[str, Any]:
        """The ``compaction_snapshot`` payload equivalent to this view.

        Equivalence is over everything a resume consumes: the campaign and
        resume records, current lease state, the journaled seed plan,
        *pending* checkpoints with their folded histories (completed
        scenarios' checkpoints are dead weight — nothing reads them),
        completions, the full behavior-delta
        list (kept verbatim so limit-aware folds still work after later
        checkpoints move a scenario's limit), the folded cache op logs, and the
        insert WAL folded to the latest record per (scenario, fingerprint)
        — applying only the latest is corpus-equivalent because every event
        for a fingerprint carries the full entry and applies idempotently.
        """
        latest_insert: Dict[Any, int] = {}
        for index, data in enumerate(self.inserts):
            latest_insert[(data.get("scenario_id"), data.get("fingerprint"))] = index
        folded_inserts = [self.inserts[i] for i in sorted(latest_insert.values())]
        latest_quarantine: Dict[Any, int] = {}
        for index, data in enumerate(self.quarantined):
            latest_quarantine[(data.get("fingerprint"), data.get("cca"))] = index
        folded_quarantined = [self.quarantined[i] for i in sorted(latest_quarantine.values())]
        return {
            "snapshot_schema": SNAPSHOT_VIEW_SCHEMA,
            "last_seq": self.last_seq,
            "view": {
                "campaign": self.campaign,
                "resumes": list(self.resumes),
                "leases": {sid: dict(lease) for sid, lease in self.leases.items()},
                "scenario_seeds": self.scenario_seeds,
                "checkpoints": dict(self.pending_checkpoints()),
                "completed": dict(self.completed),
                "behavior_deltas": list(self.behavior_deltas),
                "caches": self.caches,
                "inserts": folded_inserts,
                "quarantined": folded_quarantined,
                "record_count": self.record_count + self.compacted_records,
            },
        }


# ---------------------------------------------------------------------- #
# Per-type fold helpers (shared by record replay and snapshot seeding)
# ---------------------------------------------------------------------- #


def _own_ops(payload: Any) -> Any:
    """A cache payload with its own op list: later deltas fold into it in place."""
    if isinstance(payload, dict) and isinstance(payload.get("ops"), list):
        return {**payload, "ops": list(payload["ops"])}
    return payload


def _fold_lease(
    view: JournalView, data: Dict[str, Any], max_epoch: Dict[str, int]
) -> None:
    scenario_id = data["scenario_id"]
    epoch = lease_epoch_of(data)
    max_epoch[scenario_id] = max(max_epoch.get(scenario_id, 0), epoch)
    current = view.leases.get(scenario_id)
    if current is None or epoch > lease_epoch_of(current):
        view.leases[scenario_id] = dict(data)


def _fold_lease_renew(view: JournalView, data: Dict[str, Any]) -> None:
    current = view.leases.get(data.get("scenario_id", ""))
    if current is not None and lease_epoch_of(data) == lease_epoch_of(current):
        if "expires_at" in data:
            current["expires_at"] = data["expires_at"]


def _fold_lease_release(view: JournalView, data: Dict[str, Any]) -> None:
    current = view.leases.get(data.get("scenario_id", ""))
    if current is not None and lease_epoch_of(data) == lease_epoch_of(current):
        current["released"] = True


def _history(checkpoint: Optional[Dict[str, Any]]) -> Optional[List[Any]]:
    fuzzer = checkpoint.get("fuzzer") if checkpoint else None
    history = fuzzer.get("history") if isinstance(fuzzer, dict) else None
    return history if isinstance(history, list) else None


def _own_history(checkpoint: Dict[str, Any]) -> Dict[str, Any]:
    """A checkpoint with its own history list: later folds extend it in place."""
    history = _history(checkpoint)
    if not history:
        return checkpoint
    return {**checkpoint, "fuzzer": {**checkpoint["fuzzer"], "history": list(history)}}


def _fold_checkpoint(view: JournalView, data: Dict[str, Any]) -> None:
    scenario_id = data["scenario_id"]
    current = view.checkpoints.get(scenario_id)
    if current is not None and data["generation"] < current["generation"]:
        return
    tail = _history(data)
    if tail:
        # A non-empty history in the view is the fold's own, never a record's.
        history = _history(current) or []
        try:
            while history and history[-1]["generation"] >= tail[0]["generation"]:
                history.pop()
        except (KeyError, TypeError):
            history = []
        history.extend(tail)
        data = {**data, "fuzzer": {**data["fuzzer"], "history": history}}
    view.checkpoints[scenario_id] = data


def _fold_cache(view: JournalView, data: Dict[str, Any]) -> None:
    """Fold the cache op-delta a checkpoint or completion record carries."""
    delta = data.get("cache")
    if delta is None:
        return
    # Fleet workers (the only writers of lease epochs) run every scenario on
    # a private cache; a serial campaign shares one across scenarios.
    scope = data.get("scenario_id", "") if "lease_epoch" in data else ""
    ops = delta.get("ops") if isinstance(delta, dict) else None
    base = delta.get("base") if isinstance(ops, list) else None
    folded: Optional[List[Any]] = None
    if base == 0:
        folded = []
    elif type(base) is int and base > 0:
        # A ``base``-0 payload in the view always owns its op list (built
        # here or copied from a snapshot), so truncating in place never
        # touches a record's own data.
        current = view.caches.get(scope)
        log = current.get("ops") if isinstance(current, dict) and current.get("base") == 0 else None
        if isinstance(log, list) and base <= len(log):
            del log[base:]
            folded = log
    if folded is None:
        # Not an op-delta (a full dump from an older writer), or one whose
        # predecessors are missing: keep it as found and let
        # ``TraceCache.restore`` refuse it, which resumes cold.
        view.caches[scope] = delta
        return
    folded.extend(ops)
    view.caches[scope] = {**delta, "base": 0, "ops": folded}


def _fold_insert(view: JournalView, data: Dict[str, Any]) -> None:
    view.inserts.append(data)
    per_scenario = view.inserts_by_scenario.setdefault(data["scenario_id"], {})
    per_scenario[data["fingerprint"]] = data


def _fold_quarantine(view: JournalView, data: Dict[str, Any]) -> None:
    view.quarantined.append(data)


def _fold_complete(view: JournalView, data: Dict[str, Any]) -> None:
    view.completed[data["scenario_id"]] = data


def _is_fenced(data: Dict[str, Any], max_epoch: Dict[str, int]) -> bool:
    """Stale-epoch check: fenced iff the record's epoch predates the highest
    lease epoch already folded (i.e. granted at a lower sequence number)."""
    epoch = data.get("lease_epoch")
    if epoch is None:
        return False
    scenario_id = data.get("scenario_id", "")
    try:
        return int(epoch) < max_epoch.get(scenario_id, 0)
    except (TypeError, ValueError):
        return False


def _fold_snapshot(
    view: JournalView, data: Dict[str, Any], max_epoch: Dict[str, int]
) -> None:
    """Seed the view from a ``compaction_snapshot`` payload.

    Data records are re-folded through the same per-type helpers replay
    uses, *before* the snapshot's lease state enters the fencing map — the
    snapshotted records already passed fencing when the snapshot was taken,
    and a victim's pre-steal checkpoint must stay visible.  Folding the lease
    epochs afterwards re-arms the fence against zombie records appended
    after the compaction.  Cache deltas inside snapshotted records are *not*
    re-folded (they are no longer in log order); the snapshot carries the
    folded op logs themselves.
    """
    snapshot_view = data.get("view")
    if not isinstance(snapshot_view, dict):
        return
    if view.campaign is None and snapshot_view.get("campaign") is not None:
        view.campaign = snapshot_view["campaign"]
    view.resumes.extend(snapshot_view.get("resumes") or [])
    for checkpoint in (snapshot_view.get("checkpoints") or {}).values():
        _fold_checkpoint(view, checkpoint)
    view.behavior_deltas.extend(snapshot_view.get("behavior_deltas") or [])
    for insert in snapshot_view.get("inserts") or []:
        _fold_insert(view, insert)
    for entry in snapshot_view.get("quarantined") or []:
        _fold_quarantine(view, entry)
    for _, payload in sorted((snapshot_view.get("completed") or {}).items()):
        _fold_complete(view, payload)
    for scope, payload in (snapshot_view.get("caches") or {}).items():
        view.caches[scope] = _own_ops(payload)
    if snapshot_view.get("scenario_seeds") is not None:
        view.scenario_seeds = snapshot_view["scenario_seeds"]
    for _, lease in sorted((snapshot_view.get("leases") or {}).items()):
        if isinstance(lease, dict) and "scenario_id" in lease:
            _fold_lease(view, lease, max_epoch)
    try:
        view.compacted_records += int(snapshot_view.get("record_count") or 0)
    except (TypeError, ValueError):
        pass


def _fold_key(record: JournalRecord) -> Tuple[int, str, str]:
    return (record.seq, record.type, record.dedup_key())


class JournalFold:
    """A fold that can be continued: the view plus what the next record needs.

    ``extend`` takes records in batches and gives the view a from-scratch
    :func:`replay_records` of all of them would, provided each batch sorts
    after the previous ones — which an append-only log's batches do.  A batch
    that does not is refused whole, and the caller starts a new fold.
    """

    __slots__ = ("view", "traces", "_seen", "_max_epoch", "_last_key")

    def __init__(self) -> None:
        self.view = JournalView()
        #: digest -> trace, from every folded record's ``traces`` table.
        self.traces: Dict[str, Dict[str, Any]] = {}
        self._seen: set = set()
        #: scenario_id -> highest lease epoch granted so far in fold order.
        self._max_epoch: Dict[str, int] = {}
        self._last_key: Optional[Tuple[int, str, str]] = None

    def extend(self, records: Iterable[JournalRecord]) -> bool:
        """Fold ``records``; ``False`` (nothing folded) if they sort before
        a record already folded."""
        batch = sorted(records, key=_fold_key)
        if not batch:
            return True
        if self._last_key is not None and _fold_key(batch[0]) < self._last_key:
            return False
        for record in batch:
            self._fold(record)
        self._last_key = _fold_key(batch[-1])
        return True

    def _fold(self, record: JournalRecord) -> None:
        view, max_epoch = self.view, self._max_epoch
        if record.traces:
            self.traces.update(record.traces)
        key = record.dedup_key()
        if key in self._seen:
            view.duplicates += 1
            return
        self._seen.add(key)
        view.record_count += 1
        view.last_seq = max(view.last_seq, record.seq)
        data = record.data
        if record.type in FENCED_EVENT_TYPES and _is_fenced(data, max_epoch):
            view.fenced_records += 1
            return
        if record.schema > 1:
            data = inflate(record.type, data, self.traces)
        if record.type == "campaign_start":
            if view.campaign is None:
                view.campaign = data
        elif record.type == "campaign_resume":
            view.resumes.append(data)
        elif record.type == "scenario_lease":
            _fold_lease(view, data, max_epoch)
        elif record.type == "lease_renew":
            _fold_lease_renew(view, data)
        elif record.type == "lease_release":
            _fold_lease_release(view, data)
        elif record.type == "scenario_seeds":
            view.scenario_seeds = data
        elif record.type == "generation_checkpoint":
            _fold_checkpoint(view, data)
            _fold_cache(view, data)
        elif record.type == "behavior_delta":
            view.behavior_deltas.append(data)
        elif record.type == "corpus_insert":
            _fold_insert(view, data)
        elif record.type == "job_quarantined":
            _fold_quarantine(view, data)
        elif record.type == "scenario_complete":
            _fold_complete(view, data)
            _fold_cache(view, data)
        elif record.type == "compaction_snapshot":
            _fold_snapshot(view, data, max_epoch)
        # Unknown event types within a supported schema are ignored, so a
        # newer writer's extra events do not break an older reader.


def replay_records(
    records: List[JournalRecord], *, torn_records: int = 0
) -> JournalView:
    """Fold intact records into a :class:`JournalView` (one cold batch)."""
    fold = JournalFold()
    fold.extend(records)
    fold.view.torn_records = torn_records
    return fold.view
