"""Behavior signatures: deterministic fingerprints of *how* a CCA failed.

A scalar damage score collapses every run to one number, so a genetic search
rewards one attack family and the corpus fills with near-duplicates of it.
The :class:`BehaviorSignature` captures the *mechanism* of a run instead:

* the CCA state-machine **transition multiset** (from the uniform
  ``diagnostics()`` counters every registered algorithm maintains),
* a quantized **trajectory shape** (the windowed egress rate, 8 windows × 5
  levels),
* bucketed **episode counts** (loss events, RTOs, recovery entries),
* a **stall class** derived from the longest delivery gap, and
* a **goodput bucket** (utilization in tenths).

Everything is computed from streaming monitor counters and aggregate
diagnostics — never from recorded per-ACK series — so extraction costs
O(delivered packets) at worst and a run's signature does not depend on what
else the run was asked to record.

Two projections matter:

* :meth:`BehaviorSignature.descriptor` / :meth:`~BehaviorSignature.cell_key`
  — the **bounded** MAP-Elites cell (cca x goodput x loss x rto x recovery x
  stall).  Two runs in the same cell "failed the same way" at the archive's
  granularity.
* :meth:`BehaviorSignature.fingerprint` — a hash over the *full* signature
  (cell plus shape plus transition multiset), used to recognise exact
  behavioral duplicates.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from ..netsim.packet import CCA_FLOW
from ..netsim.simulation import SimulationResult

#: Version stamped into serialized signatures; bump when the extraction
#: changes incompatibly (archives with another version refuse to merge).
SIGNATURE_SCHEMA = 1

#: Trajectory quantization: the run is cut into this many equal windows ...
SHAPE_WINDOWS = 8
#: ... and each window's level is quantized to one of this many steps.
SHAPE_LEVELS = 5

#: Goodput buckets: utilization in tenths, clamped to [0, GOODPUT_BUCKETS].
GOODPUT_BUCKETS = 10

#: Episode-count buckets are log2-ish: 0, 1, 2, 3-4, 5-8, 9-16, 17+.
COUNT_BUCKET_MAX = 6

#: Stall classes by longest-delivery-gap fraction of the run duration.
STALL_CLASSES = ("none", "brief", "stall", "severe", "dead")


def count_bucket(count: int) -> int:
    """Log2-ish bucket of an episode count (robust to off-by-a-few noise)."""
    if count <= 0:
        return 0
    bucket = 1
    bound = 1
    while count > bound and bucket < COUNT_BUCKET_MAX:
        bound *= 2
        bucket += 1
    return bucket


def stall_class(max_gap: float, duration: float, delivered: int) -> str:
    """Classify the longest delivery gap of a run."""
    if delivered <= 0:
        return "dead"
    fraction = max_gap / duration if duration > 0 else 0.0
    if fraction >= 0.5:
        return "severe"
    if fraction >= 0.2:
        return "stall"
    if fraction >= 0.05:
        return "brief"
    return "none"


def _quantize_shape(values, ceiling: float) -> str:
    """Quantize a per-window series into a SHAPE_LEVELS-ary digit string."""
    if ceiling <= 0:
        return "0" * len(values)
    digits = []
    for value in values:
        level = int(value / ceiling * SHAPE_LEVELS)
        digits.append(str(min(max(level, 0), SHAPE_LEVELS - 1)))
    return "".join(digits)


def _trajectory_shape(result: SimulationResult) -> str:
    """Quantized delivery silhouette of the run.

    The windowed egress rate normalised by the bottleneck rate: the
    delivery-side outline of the cwnd trajectory, available from the
    streaming monitor in every run.
    """
    duration = result.duration
    rates = [rate for _, rate in result.monitor.windowed_rate(
        CCA_FLOW, duration / SHAPE_WINDOWS, duration, result.config.mss_bytes
    )][:SHAPE_WINDOWS]
    rates += [0.0] * (SHAPE_WINDOWS - len(rates))
    return _quantize_shape(rates, result.config.bottleneck_rate_mbps)


@dataclass(frozen=True)
class BehaviorSignature:
    """Deterministic, compact description of one simulation's behavior."""

    cca: str
    goodput_bucket: int                    #: utilization in tenths, 0..10
    loss_bucket: int                       #: CCA loss episodes (bucketed)
    rto_bucket: int                        #: RTO firings (bucketed)
    recovery_bucket: int                   #: fast-recovery entries (bucketed)
    stall_class: str                       #: longest-delivery-gap class
    shape: str                             #: quantized trajectory digits
    transitions: Tuple[Tuple[str, int], ...] = field(default_factory=tuple)
    #: state-machine transition multiset as sorted (edge, bucketed count)

    def descriptor(self) -> Tuple[str, ...]:
        """The bounded MAP-Elites descriptor (archive cell coordinates)."""
        return (
            self.cca,
            f"g{self.goodput_bucket}",
            f"l{self.loss_bucket}",
            f"r{self.rto_bucket}",
            f"v{self.recovery_bucket}",
            self.stall_class,
        )

    def cell_key(self) -> str:
        """Cell coordinates joined into the archive's dictionary key."""
        return "/".join(self.descriptor())

    def fingerprint(self) -> str:
        """Stable hash over the full signature (cell + shape + transitions)."""
        canonical = "|".join(
            (
                self.cell_key(),
                self.shape,
                ";".join(f"{edge}={count}" for edge, count in self.transitions),
            )
        )
        return hashlib.blake2b(canonical.encode("utf-8"), digest_size=12).hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SIGNATURE_SCHEMA,
            "cca": self.cca,
            "goodput_bucket": self.goodput_bucket,
            "loss_bucket": self.loss_bucket,
            "rto_bucket": self.rto_bucket,
            "recovery_bucket": self.recovery_bucket,
            "stall_class": self.stall_class,
            "shape": self.shape,
            "transitions": [[edge, count] for edge, count in self.transitions],
            # Denormalised conveniences for index rows and reports.
            "cell": self.cell_key(),
            "fingerprint": self.fingerprint(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BehaviorSignature":
        return cls(
            cca=str(payload["cca"]),
            goodput_bucket=int(payload["goodput_bucket"]),
            loss_bucket=int(payload["loss_bucket"]),
            rto_bucket=int(payload["rto_bucket"]),
            recovery_bucket=int(payload["recovery_bucket"]),
            stall_class=str(payload["stall_class"]),
            shape=str(payload["shape"]),
            transitions=tuple(
                (str(edge), int(count)) for edge, count in payload.get("transitions", [])
            ),
        )


def extract_signature(result: SimulationResult) -> BehaviorSignature:
    """Extract the behavior signature of one simulation result.

    Pure function of the result: the simulator is deterministic, so the same
    ``(trace, CCA, config)`` yields the same signature in any process and on
    any evaluation backend.
    """
    episodes = result.episode_summary()
    utilization = result.utilization()
    goodput_bucket = min(max(int(utilization * GOODPUT_BUCKETS), 0), GOODPUT_BUCKETS)
    transitions = tuple(
        sorted(
            (edge, count_bucket(count))
            for edge, count in episodes["state_transitions"].items()
        )
    )
    return BehaviorSignature(
        cca=result.cca_name,
        goodput_bucket=goodput_bucket,
        loss_bucket=count_bucket(episodes["loss_events"]),
        rto_bucket=count_bucket(episodes["rto_events"]),
        recovery_bucket=count_bucket(episodes["recovery_entries"]),
        stall_class=stall_class(
            episodes["max_egress_gap"], result.duration, episodes["delivered"]
        ),
        shape=_trajectory_shape(result),
        transitions=transitions,
    )


def signature_from_summary(summary: Mapping[str, Any]) -> Optional[BehaviorSignature]:
    """Recover the signature an evaluation outcome carries (None if absent).

    Evaluation workers attach ``behavior_signature`` to every outcome
    summary; failure outcomes (and a test's fake backend) carry none, and
    guidance strategies must tolerate that.
    """
    payload = summary.get("behavior_signature")
    if not isinstance(payload, Mapping):
        return None
    try:
        return BehaviorSignature.from_dict(payload)
    except (KeyError, TypeError, ValueError):
        return None
