"""Delta-debugging trace minimization.

A GA winner is typically a noisy, over-long trace: the search only has to
*find* the damaging structure, not isolate it.  The minimizer shrinks a trace
while preserving (a configurable fraction of) its attack score, turning e.g.
a 400-packet cross-traffic cloud into the two bursts that actually kill the
flow — the distillation the paper performs by hand in section 4.2.

Stages propose, the driver accepts.  Each stage is a generator that looks at
the current trace and yields a batch of candidate traces.  One driver,
:meth:`_Reduction.run`, scores every candidate that differs from the current
trace through the :class:`TraceScorer` (and so through the shared evaluation
backend + cache), accepts the candidate at or above the retention floor with
the fewest events, counts the round, stops at :data:`MAX_ROUNDS` and charges
the evaluation budget.  It sends the accepted trace (or ``None``) back, and
the stage decides whether to propose again, refine its granularity or stop.  The stages, in order:

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
   uniform-rate segment of the same packet count, halving the segment count
   after a failed pass — link traces carry a fixed packet budget (the
   service curve's bandwidth), so they are simplified structurally, never
   shortened.

Every stage is a pure function of the traces it is sent, so for a given
trace/scorer the minimization is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

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
    stages: List[Dict[str, Any]]

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
    count = max(1, min(count, n))
    bounds = [round(i * n / count) for i in range(count + 1)]
    return [list(timestamps[a:b]) for a, b in zip(bounds, bounds[1:]) if b > a]


def _uniform(start: float, end: float, count: int) -> List[float]:
    """``count`` evenly spaced timestamps across ``[start, end]``, both ends exact."""
    if count <= 0:
        return []
    if count == 1:
        return [start]
    step = (end - start) / (count - 1)
    return [start + i * step for i in range(count - 1)] + [end]


def _splice(
    trace: PacketTrace,
    segments: List[List[float]],
    index: int,
    replacement: Sequence[float],
    span: int = 1,
) -> PacketTrace:
    """``trace`` with ``segments[index:index + span]`` replaced by ``replacement``."""
    kept = [t for segment in segments[:index] for t in segment]
    kept.extend(replacement)
    kept.extend(t for segment in segments[index + span :] for t in segment)
    return trace.with_timestamps(kept)


def _pair_merges(trace: PacketTrace, segments: List[List[float]]) -> List[PacketTrace]:
    """One candidate per adjacent pair of ``segments``, respaced as one even run."""
    candidates = []
    for index in range(len(segments) - 1):
        pair = segments[index] + segments[index + 1]
        merged = _uniform(pair[0], pair[-1], len(pair))
        candidates.append(_splice(trace, segments, index, merged, span=2))
    return candidates


#: A stage's proposals: it yields candidate batches and is sent the accepted trace.
_Proposals = Generator[List[PacketTrace], Optional[PacketTrace], None]


class _Reduction:
    """The one greedy loop every stage runs under, with the evaluation budget
    all stages of one minimization share."""

    def __init__(self, scorer, limit: int) -> None:
        self.scorer = scorer
        self.limit = limit
        self.spent = 0
        self.floor = float("nan")

    def score(self, traces: List[PacketTrace]) -> List[float]:
        """Scores of the leading traces the budget still covers, charged
        before cache resolution."""
        granted = traces[: max(0, self.limit - self.spent)]
        self.spent += len(granted)
        return self.scorer.scores(granted) if granted else []

    def run(
        self, stage: Callable[[PacketTrace], _Proposals], trace: PacketTrace, score: float
    ) -> Tuple[PacketTrace, float, int]:
        """Drive ``stage`` from ``trace``; returns the reduced trace, its score
        and the rounds accepted (at most :data:`MAX_ROUNDS`).

        Of each batch the stage proposes, candidates equal to the current
        trace are dropped unscored, and the remaining candidate at or above
        the floor with the fewest events is accepted (ties break on batch
        position, so the outcome is a deterministic function of the candidate
        order).  The stage is sent the accepted trace, or ``None``, and
        proposes its next batch or returns.
        """
        proposals = stage(trace)
        accepted: Optional[PacketTrace] = None
        rounds = 0
        while rounds < MAX_ROUNDS:
            try:
                candidates = proposals.send(accepted)
            except StopIteration:
                break
            current = trace.fingerprint()
            candidates = [c for c in candidates if c.fingerprint() != current]
            accepted = None
            for candidate, value in zip(candidates, self.score(candidates)):
                if value < self.floor:
                    continue
                if accepted is None or candidate.packet_count < accepted.packet_count:
                    accepted, best = candidate, value
            if accepted is not None:
                trace, score, rounds = accepted, best, rounds + 1
        return trace, score, rounds


# --------------------------------------------------------------------------- #
# Stages
# --------------------------------------------------------------------------- #


def _segment_removal(current: PacketTrace) -> _Proposals:
    """ddmin-style removal: drop bursts, falling back to ever finer chunks."""
    granularity = 2
    while current.packet_count >= 2:
        segments = split_bursts(current.timestamps)
        bursty = len(segments) >= 2
        if not bursty:
            segments = _equal_chunks(current.timestamps, granularity)
            if len(segments) < 2:
                return
        accepted = yield [_splice(current, segments, i, ()) for i in range(len(segments))]
        if accepted is not None:
            current, granularity = accepted, 2
        elif bursty or granularity >= current.packet_count:
            return
        else:
            granularity = min(current.packet_count, granularity * 2)


def _thinning(current: PacketTrace) -> _Proposals:
    """Halve packet density — of the whole trace, or of one burst at a time."""
    while current is not None and current.packet_count >= 2:
        candidates = [current.with_timestamps(current.timestamps[::2])]
        bursts = split_bursts(current.timestamps)
        if len(bursts) >= 2:
            candidates += [
                _splice(current, bursts, i, burst[::2])
                for i, burst in enumerate(bursts)
                if len(burst) >= 2
            ]
        current = yield candidates


def _single_event(current: PacketTrace) -> _Proposals:
    """One-at-a-time event removal (quadratic; only run on small traces)."""
    if current.packet_count > SINGLE_EVENT_LIMIT:
        return
    while current is not None and current.packet_count >= 1:
        events = [[t] for t in current.timestamps]
        current = yield [_splice(current, events, i, ()) for i in range(len(events))]


def _burst_coalescing(current: PacketTrace) -> _Proposals:
    """Merge adjacent bursts and canonicalise bursts to even spacing.

    Packet counts never change here; the goal is interpretability — a
    minimal attack reads as "k uniform bursts at these times", not as k
    ragged packet clouds.
    """
    while current is not None:
        bursts = split_bursts(current.timestamps)
        candidates = _pair_merges(current, bursts)
        for index, burst in enumerate(bursts):
            canonical = _uniform(burst[0], burst[-1], len(burst))
            if canonical != burst:
                candidates.append(_splice(current, bursts, index, canonical))
        if not candidates:
            return
        current = yield candidates


def _link_segment_merging(current: PacketTrace) -> _Proposals:
    """Replace chunks of a link trace with uniform-rate segments.

    Link traces must keep their packet budget (the service curve's average
    bandwidth is a search invariant), so minimization means *structural*
    simplification: each accepted merge rewrites a chunk of transmission
    opportunities as an evenly spaced segment of the same count, erasing
    rate structure that was not load-bearing for the attack.

    The packet count never changes, so a merge is an index span that stays
    put.  An accepted span is never proposed again (respacing an even run
    only moves it by float rounding, and two overlapping merges would take
    turns), and once the whole trace is one even run the stage is done.
    """
    count, merged = current.packet_count, set()
    segment_count = LINK_SEGMENTS
    while segment_count >= 2 and (0, count) not in merged:
        segments = _equal_chunks(current.timestamps, segment_count)
        if len(segments) < 2:
            return
        bounds = [0, *accumulate(map(len, segments))]
        # Adjacent pairs of chunks, then the whole trace: the fully uniform
        # trace (no attack structure at all) is always a candidate, and if it
        # still meets the floor the "attack" was never about the link's rate
        # pattern.
        spans = [
            span for span in dict.fromkeys([*zip(bounds, bounds[2:]), (0, count)])
            if span not in merged
        ]
        timestamps = current.timestamps
        candidates = [
            current.with_timestamps(
                timestamps[:a] + _uniform(timestamps[a], timestamps[b - 1], b - a) + timestamps[b:]
            )
            for a, b in spans
        ]
        accepted = yield candidates
        if accepted is None:
            segment_count //= 2
        else:
            # `_Reduction.run` sends back the accepted candidate itself.
            merged.add(spans[next(i for i, c in enumerate(candidates) if c is accepted)])
            current = accepted


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #

_REMOVAL_STAGES = (
    ("segment-removal", _segment_removal),
    ("thinning", _thinning),
    ("single-event", _single_event),
)

#: Fuzzing mode -> reduction stages, in the order they run.  A link trace's
#: packet budget is fixed, so it is only ever reshaped, never thinned; an
#: untyped trace (mode ``None``) is a bare event list and gets plain removal.
STAGES_BY_MODE = {
    "link": (("segment-merging", _link_segment_merging),),
    "traffic": _REMOVAL_STAGES + (("burst-coalescing", _burst_coalescing),),
    "loss": _REMOVAL_STAGES,
    None: _REMOVAL_STAGES,
}


def minimize_trace(
    trace: PacketTrace,
    scorer,
    config: MinimizeConfig,
) -> MinimizationResult:
    """Shrink ``trace`` while keeping ≥ ``config.retention`` of its score.

    ``scorer`` is any object with ``scores(traces) -> List[float]`` (normally
    a :class:`~repro.triage.evaluation.TraceScorer`).  The result's
    ``minimized`` trace is always structurally valid, never longer than the
    input, and scores at least ``retention_floor(baseline, retention)``.
    """
    reduction = _Reduction(scorer, config.max_evaluations)
    baseline = reduction.score([trace])[0]
    reduction.floor = floor = retention_floor(baseline, config.retention)

    current, current_score = trace, baseline
    stage_log: List[Dict[str, Any]] = []
    for name, stage in STAGES_BY_MODE[trace.mode]:
        current, current_score, rounds = reduction.run(stage, current, current_score)
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
        evaluations=reduction.spent,
        stages=stage_log,
    )
