"""Delta-debugging trace minimization.

A GA winner is typically a noisy, over-long trace: the search only has to
*find* the damaging structure, not isolate it.  The minimizer shrinks a trace
while preserving (a configurable fraction of) its attack score, turning e.g.
a 400-packet cross-traffic cloud into the two bursts that actually kill the
flow — the distillation the paper performs by hand in section 4.2.

The reduction runs in deterministic stages, each of which proposes a batch
of candidate traces, scores them through the :class:`TraceScorer` (and so
through the shared evaluation backend + cache), and greedily accepts the
best acceptable candidate:

1. **segment removal** (traffic/loss): ddmin-flavoured — drop whole bursts
   when the trace has burst structure, otherwise drop fixed chunks with the
   granularity doubling after a failed pass;
2. **thinning** (traffic/loss): halve the packet density of the whole trace
   or of one burst at a time;
3. **single-event pruning** (traffic/loss): classic one-at-a-time removal,
   only attempted once the trace is small (it is quadratic) — this is the
   loss-event pruning pass for :class:`LossTrace`;
4. **burst coalescing** (traffic): merge adjacent bursts into one uniform
   burst, and canonicalise surviving bursts to even spacing;
5. **segment merging** (link): replace adjacent time segments with one
   uniform-rate segment of the same packet count — link traces carry a fixed
   packet budget (the service curve's bandwidth), so they are simplified
   structurally, never shortened.

Every stage is a pure function of the input trace and scores, so for a given
trace/scorer the minimization is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..traces.trace import PacketTrace


def retention_floor(baseline: float, retention: float) -> float:
    """Lowest acceptable score for a reduced trace.

    Scores may be negative (e.g. negated Mbps), so "retains X% of the score"
    is defined as degrading by at most ``(1 - retention)`` of the baseline's
    magnitude: a -0.50 attack with retention 0.9 may drop to -0.55, a +0.20
    delay attack to +0.18.
    """
    return baseline - (1.0 - retention) * abs(baseline)


def observed_retention(baseline: float, score: float) -> float:
    """Observed score retention vs a baseline (1.0 = no degradation).

    The inverse view of :func:`retention_floor`: ``score >=
    retention_floor(baseline, r)`` iff ``observed_retention(baseline, score)
    >= r``.  A zero baseline retains fully iff the score did not go negative.
    """
    if baseline == 0.0:
        return 1.0 if score >= 0.0 else 0.0
    return 1.0 - (baseline - score) / abs(baseline)


#: Silence (s) separating two bursts.  Must sit between intra-burst packet
#: spacing (sub-millisecond, still <10ms after heavy thinning) and the
#: smallest structural gap worth preserving — the ~40ms one-RTT spacing of
#: the CUBIC two-burst attack is the tightest case.
BURST_GAP = 0.03
MAX_ROUNDS = 64                            #: accepted reductions per stage
SINGLE_EVENT_LIMIT = 32                    #: max events for the one-at-a-time pass
LINK_SEGMENTS = 8                          #: initial segmentation of link traces


@dataclass
class MinimizeConfig:
    """Knobs of the delta-debugging reduction."""

    retention: float = 0.9                 #: fraction of the baseline score to keep
    #: Total candidate-evaluation budget.  Deliberately charged per candidate
    #: *before* cache resolution, so the reduction path (and therefore the
    #: minimized trace) never depends on how warm a shared cache happens to
    #: be — cache hits only make a minimization faster, never different.
    max_evaluations: int = 400

    def __post_init__(self) -> None:
        if not 0.0 < self.retention <= 1.0:
            raise ValueError("retention must be in (0, 1]")
        if self.max_evaluations < 1:
            raise ValueError("max_evaluations must be positive")


@dataclass
class MinimizationResult:
    """What the minimizer did to one trace."""

    original: PacketTrace
    minimized: PacketTrace
    baseline_score: float
    minimized_score: float
    retention: float                       #: configured bound
    floor: float                           #: the acceptance threshold used
    evaluations: int                       #: candidate evaluations charged (cached or simulated)
    stages: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def events_before(self) -> int:
        return self.original.packet_count

    @property
    def events_after(self) -> int:
        return self.minimized.packet_count

    @property
    def reduced(self) -> bool:
        return self.minimized.fingerprint() != self.original.fingerprint()

    @property
    def achieved_retention(self) -> float:
        """Observed score retention (1.0 = no degradation at all)."""
        return observed_retention(self.baseline_score, self.minimized_score)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "events_before": self.events_before,
            "events_after": self.events_after,
            "baseline_score": self.baseline_score,
            "minimized_score": self.minimized_score,
            "retention_bound": self.retention,
            "achieved_retention": round(self.achieved_retention, 4),
            "reduced": self.reduced,
            "evaluations": self.evaluations,
            "minimized_fingerprint": self.minimized.fingerprint(),
            "original_fingerprint": self.original.fingerprint(),
            "stages": list(self.stages),
        }


# --------------------------------------------------------------------------- #
# Structural helpers
# --------------------------------------------------------------------------- #


def split_bursts(timestamps: Sequence[float]) -> List[List[float]]:
    """Partition sorted timestamps into bursts separated by > :data:`BURST_GAP`."""
    bursts: List[List[float]] = []
    for t in timestamps:
        if bursts and t - bursts[-1][-1] <= BURST_GAP:
            bursts[-1].append(t)
        else:
            bursts.append([t])
    return bursts


def _equal_chunks(timestamps: Sequence[float], count: int) -> List[List[float]]:
    """Split into ``count`` contiguous chunks of (nearly) equal size."""
    n = len(timestamps)
    count = min(count, n)
    bounds = [round(i * n / count) for i in range(count + 1)]
    return [list(timestamps[a:b]) for a, b in zip(bounds, bounds[1:]) if b > a]


def _uniform(start: float, end: float, count: int) -> List[float]:
    """``count`` evenly spaced timestamps across ``[start, end]``."""
    if count <= 0:
        return []
    if count == 1:
        return [start]
    step = (end - start) / (count - 1)
    return [start + i * step for i in range(count)]


class _Budget:
    """Shared evaluation budget across all stages of one minimization."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.spent = 0

    def take(self, want: int) -> int:
        """Reserve up to ``want`` evaluations; returns how many were granted."""
        granted = max(0, min(want, self.limit - self.spent))
        self.spent += granted
        return granted


class _Reduction:
    """Greedy accept-the-best-candidate loop shared by every stage."""

    def __init__(self, scorer, floor: float, budget: _Budget) -> None:
        self.scorer = scorer
        self.floor = floor
        self.budget = budget

    def best_acceptable(
        self, candidates: List[PacketTrace]
    ) -> Optional[Tuple[PacketTrace, float]]:
        """Score candidates (within budget) and pick the acceptable one with
        the fewest events; ties break on batch position, so the outcome is a
        deterministic function of the candidate order."""
        granted = self.budget.take(len(candidates))
        if granted == 0:
            return None
        candidates = candidates[:granted]
        scores = self.scorer.scores(candidates)
        best: Optional[Tuple[PacketTrace, float]] = None
        for trace, score in zip(candidates, scores):
            if score < self.floor:
                continue
            if best is None or trace.packet_count < best[0].packet_count:
                best = (trace, score)
        return best


# --------------------------------------------------------------------------- #
# Stages
# --------------------------------------------------------------------------- #


def _stage_segment_removal(
    trace: PacketTrace, reduction: _Reduction
) -> Tuple[PacketTrace, float, int]:
    """ddmin-style removal: drop bursts, falling back to ever finer chunks."""
    current, score, rounds = trace, float("nan"), 0
    granularity = 2
    while rounds < MAX_ROUNDS and current.packet_count >= 2:
        bursts = split_bursts(current.timestamps)
        if len(bursts) >= 2:
            segments = bursts
        else:
            segments = _equal_chunks(current.timestamps, granularity)
        if len(segments) < 2:
            break
        candidates = []
        for index in range(len(segments)):
            kept = [t for j, seg in enumerate(segments) if j != index for t in seg]
            candidates.append(current.with_timestamps(kept))
        accepted = reduction.best_acceptable(candidates)
        if accepted is not None:
            current, score = accepted
            rounds += 1
            granularity = 2
            continue
        if segments is bursts or granularity >= current.packet_count:
            break
        granularity = min(current.packet_count, granularity * 2)
    return current, score, rounds


def _stage_thinning(
    trace: PacketTrace, reduction: _Reduction
) -> Tuple[PacketTrace, float, int]:
    """Halve packet density — of the whole trace, or of one burst at a time."""
    current, score, rounds = trace, float("nan"), 0
    while rounds < MAX_ROUNDS and current.packet_count >= 2:
        candidates = [current.with_timestamps(current.timestamps[::2])]
        bursts = split_bursts(current.timestamps)
        if len(bursts) >= 2:
            for index, burst in enumerate(bursts):
                if len(burst) < 2:
                    continue
                kept = [
                    t
                    for j, seg in enumerate(bursts)
                    for t in (seg[::2] if j == index else seg)
                ]
                candidates.append(current.with_timestamps(kept))
        accepted = reduction.best_acceptable(candidates)
        if accepted is None:
            break
        current, score = accepted
        rounds += 1
    return current, score, rounds


def _stage_single_event(
    trace: PacketTrace, reduction: _Reduction
) -> Tuple[PacketTrace, float, int]:
    """One-at-a-time event removal (quadratic; only run on small traces)."""
    current, score, rounds = trace, float("nan"), 0
    if current.packet_count > SINGLE_EVENT_LIMIT:
        return current, score, rounds
    while rounds < MAX_ROUNDS and current.packet_count >= 1:
        timestamps = current.timestamps
        candidates = [
            current.with_timestamps(timestamps[:i] + timestamps[i + 1 :])
            for i in range(len(timestamps))
        ]
        accepted = reduction.best_acceptable(candidates)
        if accepted is None:
            break
        current, score = accepted
        rounds += 1
    return current, score, rounds


def _stage_burst_coalescing(
    trace: PacketTrace, reduction: _Reduction
) -> Tuple[PacketTrace, float, int]:
    """Merge adjacent bursts and canonicalise bursts to even spacing.

    Packet counts never change here; the goal is interpretability — a
    minimal attack reads as "k uniform bursts at these times", not as k
    ragged packet clouds.
    """
    current, score, rounds = trace, float("nan"), 0
    while rounds < MAX_ROUNDS:
        bursts = split_bursts(current.timestamps)
        candidates = []
        for index in range(len(bursts) - 1):
            merged_pair = bursts[index] + bursts[index + 1]
            merged = _uniform(merged_pair[0], merged_pair[-1], len(merged_pair))
            kept = [
                t
                for j, seg in enumerate(bursts)
                if j != index + 1
                for t in (merged if j == index else seg)
            ]
            candidates.append(current.with_timestamps(kept))
        for index, burst in enumerate(bursts):
            canonical = _uniform(burst[0], burst[-1], len(burst))
            if canonical == burst:
                continue
            kept = [
                t
                for j, seg in enumerate(bursts)
                for t in (canonical if j == index else seg)
            ]
            candidates.append(current.with_timestamps(kept))
        if not candidates:
            break
        accepted = reduction.best_acceptable(candidates)
        if accepted is None:
            break
        accepted_trace, accepted_score = accepted
        if accepted_trace.fingerprint() == current.fingerprint():
            break
        current, score = accepted_trace, accepted_score
        rounds += 1
    return current, score, rounds


def _stage_link_segment_merging(
    trace: PacketTrace, reduction: _Reduction
) -> Tuple[PacketTrace, float, int]:
    """Replace chunks of a link trace with uniform-rate segments.

    Link traces must keep their packet budget (the service curve's average
    bandwidth is a search invariant), so minimization means *structural*
    simplification: each accepted merge rewrites a chunk of transmission
    opportunities as an evenly spaced segment of the same count, erasing
    rate structure that was not load-bearing for the attack.
    """
    current, score, rounds = trace, float("nan"), 0
    segment_count = LINK_SEGMENTS
    while rounds < MAX_ROUNDS and segment_count >= 2:
        segments = _equal_chunks(current.timestamps, segment_count)
        if len(segments) < 2:
            break
        candidates = []
        for index in range(len(segments) - 1):
            pair = segments[index] + segments[index + 1]
            merged = _uniform(pair[0], pair[-1], len(pair))
            kept = [
                t
                for j, seg in enumerate(segments)
                if j != index + 1
                for t in (merged if j == index else seg)
            ]
            candidates.append(current.with_timestamps(kept))
        # The fully uniform trace (no attack structure at all) is always a
        # candidate: if it still meets the floor, the "attack" was never
        # about the link's rate pattern.
        if current.packet_count >= 2:
            candidates.append(
                current.with_timestamps(
                    _uniform(current.timestamps[0], current.timestamps[-1], current.packet_count)
                )
            )
        accepted = reduction.best_acceptable(candidates)
        accepted_is_new = (
            accepted is not None and accepted[0].fingerprint() != current.fingerprint()
        )
        if accepted_is_new:
            current, score = accepted  # type: ignore[misc]
            rounds += 1
        else:
            segment_count //= 2
    return current, score, rounds


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #

_REMOVAL_STAGES = (
    ("segment-removal", _stage_segment_removal),
    ("thinning", _stage_thinning),
    ("single-event", _stage_single_event),
)

#: Fuzzing mode -> reduction stages, in the order they run.  A link trace's
#: packet budget is fixed, so it is only ever reshaped, never thinned; an
#: untyped trace (mode ``None``) is a bare event list and gets plain removal.
STAGES_BY_MODE = {
    "link": (("segment-merging", _stage_link_segment_merging),),
    "traffic": _REMOVAL_STAGES + (("burst-coalescing", _stage_burst_coalescing),),
    "loss": _REMOVAL_STAGES,
    None: _REMOVAL_STAGES,
}


def minimize_trace(
    trace: PacketTrace,
    scorer,
    config: Optional[MinimizeConfig] = None,
) -> MinimizationResult:
    """Shrink ``trace`` while keeping ≥ ``config.retention`` of its score.

    ``scorer`` is any object with ``scores(traces) -> List[float]`` (normally
    a :class:`~repro.triage.evaluation.TraceScorer`).  The result's
    ``minimized`` trace is always structurally valid, never longer than the
    input, and scores at least ``retention_floor(baseline, retention)``.
    """
    config = config or MinimizeConfig()
    budget = _Budget(config.max_evaluations)
    budget.take(1)
    baseline = scorer.scores([trace])[0]
    floor = retention_floor(baseline, config.retention)
    reduction = _Reduction(scorer, floor, budget)

    stages = STAGES_BY_MODE[trace.mode]

    current = trace
    current_score = baseline
    stage_log: List[Dict[str, Any]] = []
    for name, stage in stages:
        reduced, score, rounds = stage(current, reduction)
        if rounds > 0:
            current, current_score = reduced, score
        stage_log.append(
            {"stage": name, "rounds": rounds, "events": current.packet_count}
        )

    minimized = current.copy()
    minimized.metadata["minimized_from"] = trace.fingerprint()
    return MinimizationResult(
        original=trace,
        minimized=minimized,
        baseline_score=baseline,
        minimized_score=current_score,
        retention=config.retention,
        floor=floor,
        evaluations=budget.spent,
        stages=stage_log,
    )
