"""Trace types: sequences of packet timestamps.

CC-Fuzz represents both bottleneck service curves and cross-traffic patterns
as a sequence of packet-level timestamps over a fixed duration (the MahiMahi
representation, section 3.2).  :class:`LinkTrace` holds transmission
opportunities; :class:`TrafficTrace` holds cross-traffic injection times.

Each concrete class declares its fuzzing ``mode`` and the ``run_simulation``
keyword its timestamps feed (``simulator_input``); :data:`TRACE_CLASSES` and
:data:`MODES` (what ``--mode``, campaign specs and ``FuzzConfig`` accept) are
derived from those declarations and every other layer asks the trace
(``trace.mode``); an untyped :class:`PacketTrace` has no mode.  The
dispatchers are ``mutate_trace``, ``crossover_traces`` /
``CROSSOVER_OPERATORS``, ``netsim.simulation.simulate_packet_trace``,
``make_score_function(objective, mode)`` and ``STAGES_BY_MODE``; the one
mode -> generator rule is ``CCFuzz._make_generator``; what may join a
population (same mode and duration, and for a link trace the same packet
budget) is ``traces.constraints.may_join_population``.  Adding a mode
touches, in order:

1. this module: a :class:`PacketTrace` subclass with ``mode`` and
   ``simulator_input``, added to the tuple :data:`TRACE_CLASSES` is built
   from (``MODES``, the CLI choices, spec validation, :meth:`from_dict`, the
   corpus's ``mode`` column and triage follow from it);
2. ``netsim/simulation.py::run_simulation``: the keyword, if it is a new
   kind of input;
3. ``traces/generator.py``: a ``TraceGenerator`` subclass, and its branch in
   ``CCFuzz._make_generator``;
4. ``traces/mutation.py``: the operator and its branch in ``mutate_trace``;
5. ``traces/crossover.py``: an entry in ``CROSSOVER_OPERATORS``, if it has one;
6. ``scoring/objectives.py::make_score_function``: its trace score, if any;
7. ``triage/minimize.py::STAGES_BY_MODE``: its reduction stages;
8. the rules that exist once and name a mode: ``may_join_population``,
   ``RealismScorer.score``, the robustness validator's bandwidth cells and
   ``cli._TRACE_GENERATORS`` (to offer it in ``repro-trace generate``).

Every serialised trace — corpus entries, ``behavior_map.json``, the
journal's records and the files ``repro-fuzz --output``, ``repro-trace
generate`` and ``repro-triage --output-trace`` write — is
:meth:`PacketTrace.to_dict`, and :meth:`PacketTrace.from_dict` is its one
reader.
"""

from __future__ import annotations

import base64
import bisect
import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Iterable, List, Optional, Sequence, Tuple

from ..netsim.monitor import time_windows
from ..netsim.packet import MSS_BYTES


def pack_le(values: Sequence[Any], code: str = "d") -> str:
    """``values`` as base64 of little-endian ``struct`` items (``"d"`` doubles,
    ``"I"`` uint32): a number array as one JSON string, which costs no float
    formatting to write or parse and re-encodes as itself, so a journal
    line's canonical-bytes check is cheap."""
    return base64.b64encode(struct.pack(f"<{len(values)}{code}", *values)).decode("ascii")


def unpack_le(text: str, code: str = "d") -> List[Any]:
    """Inverse of :func:`pack_le`; ``ValueError`` on a damaged blob (and
    ``TypeError`` on a non-string)."""
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error
        raise ValueError(f"packed array is not base64: {exc}") from None
    size = struct.calcsize(f"<{code}")
    if len(raw) % size:
        raise ValueError(f"packed array of {len(raw)} bytes is not whole {size}-byte items")
    return list(struct.unpack(f"<{len(raw) // size}{code}", raw))


def _normalise_timestamps(timestamps: Iterable[float], duration: float) -> List[float]:
    """Sort and clamp timestamps to ``[0, duration]``; reject non-finite ones
    (one sum finds them, and only finite values far past any duration
    overflow it, which the exact check then lets through)."""
    cleaned = list(map(float, timestamps))
    if not math.isfinite(sum(cleaned)) and not all(map(math.isfinite, cleaned)):
        raise ValueError("trace timestamps must be finite")
    if cleaned and (min(cleaned) < 0.0 or max(cleaned) > duration):
        cleaned = [min(max(t, 0.0), duration) for t in cleaned]
    cleaned.sort()
    return cleaned


@dataclass
class PacketTrace:
    """A sorted sequence of packet timestamps over ``[0, duration]`` seconds."""

    #: Fuzzing mode of this trace class (``None``: untyped, belongs to none).
    mode: ClassVar[Optional[str]] = None
    #: The ``run_simulation`` keyword ``timestamps`` is passed as.
    simulator_input: ClassVar[Optional[str]] = None

    timestamps: List[float]
    duration: float
    metadata: Dict[str, object] = field(default_factory=dict)
    #: Lazily computed by :meth:`fingerprint`.  Valid because timestamps are
    #: normalised once at construction and every mutation/crossover/triage
    #: operator derives new traces through the constructor; :meth:`copy`
    #: clones the timestamps unchanged and so carries it over.
    _fingerprint_cache: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not 0.0 < self.duration < math.inf:
            raise ValueError("trace duration must be positive and finite")
        self.timestamps = _normalise_timestamps(self.timestamps, self.duration)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #

    @property
    def packet_count(self) -> int:
        return len(self.timestamps)

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def average_rate_pps(self) -> float:
        return self.packet_count / self.duration

    @property
    def average_rate_mbps(self) -> float:
        return self.average_rate_pps * MSS_BYTES * 8.0 / 1e6

    def copy(self) -> "PacketTrace":
        """A field-wise clone: same type and state, own timestamp list and metadata.

        The source is already normalised and checked, so nothing is re-sorted
        or re-validated, and the memoized fingerprint carries over.
        """
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone.timestamps = list(self.timestamps)
        clone.metadata = dict(self.metadata)
        return clone

    def with_timestamps(self, timestamps: Iterable[float]) -> "PacketTrace":
        """A trace of the same type and duration but different event times.

        Goes through the constructor so subclass invariants (e.g. the traffic
        packet budget) are re-checked; the triage reducers derive every
        candidate trace this way.  Subclasses with extra constructor state
        override only this method.
        """
        return type(self)(
            timestamps=list(timestamps),
            duration=self.duration,
            metadata=dict(self.metadata),
        )

    def fingerprint(self) -> str:
        """Stable content hash used as a memoization key by the exec cache.

        Covers everything that influences a simulation — trace type,
        duration and the exact timestamp doubles — and nothing that does not
        (metadata is deliberately excluded, so mutation/crossover provenance
        tags never defeat the cache).  The constant packet size keeps its
        place in the hashed bytes, so every recorded trace digest holds.

        Computed once per trace: the evaluation cache keys every lookup and
        store by it, and traces are immutable after construction.
        """
        cached = self._fingerprint_cache
        if cached is not None:
            return cached
        digest = hashlib.blake2b(digest_size=16)
        digest.update(type(self).__name__.encode("ascii"))
        digest.update(struct.pack("<dq", self.duration, MSS_BYTES))
        digest.update(struct.pack(f"<{len(self.timestamps)}d", *self.timestamps))
        self._fingerprint_cache = result = digest.hexdigest()
        return result

    # ------------------------------------------------------------------ #
    # Derived series
    # ------------------------------------------------------------------ #

    def packets_in_interval(self, start: float, end: float) -> int:
        """Number of packets with timestamps in ``[start, end)``."""
        lo = bisect.bisect_left(self.timestamps, start)
        hi = bisect.bisect_left(self.timestamps, end)
        return hi - lo

    def windowed_counts(self, window: float) -> List[Tuple[float, int]]:
        """Packet counts over consecutive windows (``(window_start, count)``)."""
        return [(start, self.packets_in_interval(start, end))
                for start, end in time_windows(self.duration, window)]

    def windowed_rates_pps(self, window: float) -> List[Tuple[float, float]]:
        """Windowed rate series in packets/s; each window's count is divided
        by its own span, so a partial last window is no slower than its
        packets."""
        return [(start, self.packets_in_interval(start, end) / (end - start))
                for start, end in time_windows(self.duration, window)]

    def windowed_rates_mbps(self, window: float) -> List[Tuple[float, float]]:
        """Windowed rate series in Mbps."""
        return [(start, pps * MSS_BYTES * 8.0 / 1e6)
                for start, pps in self.windowed_rates_pps(window)]

    def cumulative_counts(self) -> List[Tuple[float, int]]:
        """(timestamp, cumulative packet count) pairs — the paper's Fig. 3 axes."""
        return [(t, i + 1) for i, t in enumerate(self.timestamps)]

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form; the timestamps are :func:`pack_le` doubles, and
        ``mss_bytes`` is always :data:`MSS_BYTES`."""
        return {
            "type": type(self).__name__,
            "duration": self.duration,
            "mss_bytes": MSS_BYTES,
            "timestamps_f64le": pack_le(self.timestamps),
            "metadata": dict(self.metadata),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "PacketTrace":
        """The one trace reader: :meth:`to_dict`'s form or the older
        ``timestamps`` list, as the class ``type`` names (else ``cls``).  A
        missing or mistyped field, a damaged blob or a packet size other than
        :data:`MSS_BYTES` (the simulator has one) is a ``ValueError``."""
        try:
            if payload.get("mss_bytes", MSS_BYTES) != MSS_BYTES:
                raise ValueError(
                    f"malformed trace: mss_bytes is {payload['mss_bytes']!r}, "
                    f"and every packet is {MSS_BYTES} bytes"
                )
            target_cls = _TRACE_TYPES.get(str(payload.get("type", cls.__name__)), cls)
            packed = payload.get("timestamps_f64le")
            fields: Dict[str, Any] = {
                "timestamps": list(payload["timestamps"]) if packed is None else unpack_le(packed),
                "duration": float(payload["duration"]),  # type: ignore[arg-type]
                "metadata": dict(payload.get("metadata", {})),  # type: ignore[arg-type]
            }
            if "max_packets" in payload:
                fields["max_packets"] = payload["max_packets"]
            return target_cls(**fields)
        except (AttributeError, KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed trace: {exc!r}") from exc

    @classmethod
    def from_json(cls, text: str) -> "PacketTrace":
        return cls.from_dict(json.loads(text))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(n={self.packet_count}, duration={self.duration}s, "
            f"avg={self.average_rate_mbps:.2f} Mbps)"
        )


class LinkTrace(PacketTrace):
    """Bottleneck service curve: one transmission opportunity per timestamp.

    Link-fuzzing invariant (section 3.2): the total number of opportunities —
    and therefore the average bandwidth — is fixed across the whole genetic
    search, so mutations must preserve ``packet_count``.
    """

    mode = "link"
    simulator_input = "link_trace"


class TrafficTrace(PacketTrace):
    """Cross-traffic injection times.

    Traffic-fuzzing traces have a *variable* number of packets up to
    ``max_packets`` (section 3.3); the trace score then pushes the search
    toward minimal injection vectors.
    """

    mode = "traffic"
    simulator_input = "cross_traffic_times"

    def __init__(
        self,
        timestamps: Sequence[float],
        duration: float,
        metadata: Optional[Dict[str, object]] = None,
        max_packets: Optional[int] = None,
    ) -> None:
        super().__init__(
            timestamps=list(timestamps),
            duration=duration,
            metadata=dict(metadata or {}),
        )
        self.max_packets = max_packets if max_packets is not None else len(self.timestamps)
        if self.packet_count > self.max_packets:
            raise ValueError(
                f"traffic trace has {self.packet_count} packets, above the limit {self.max_packets}"
            )

    def with_timestamps(self, timestamps: Iterable[float]) -> "TrafficTrace":
        return TrafficTrace(
            timestamps=list(timestamps),
            duration=self.duration,
            metadata=dict(self.metadata),
            max_packets=self.max_packets,
        )

    def to_dict(self) -> Dict[str, object]:
        payload = super().to_dict()
        payload["max_packets"] = self.max_packets
        return payload


class LossTrace(PacketTrace):
    """Times at which an in-flight packet is randomly dropped.

    This is the loss-fuzzing extension sketched in the paper's future work
    (section 5); it is implemented here as an additional mode.
    """

    mode = "loss"
    simulator_input = "loss_times"


#: Fuzzing mode -> trace class, from the classes' own declarations (``link``
#: and ``traffic`` are the paper's modes, ``loss`` the section-5 extension).
TRACE_CLASSES = {cls.mode: cls for cls in (LinkTrace, TrafficTrace, LossTrace)}
MODES = tuple(TRACE_CLASSES)

#: The ``"type"`` field of a serialised trace -> the class it names.
_TRACE_TYPES = {cls.__name__: cls for cls in (PacketTrace, *TRACE_CLASSES.values())}
