"""High-level simulation entry point.

``run_simulation`` builds the paper's dumbbell topology, runs the flow under
test against a link trace or cross-traffic trace, and returns a
:class:`SimulationResult` with everything the scoring functions and analysis
need: windowed throughput, queueing delays and the sender/CCA internals.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import get_registry
from ..tcp.cca.base import CongestionControl
from .engine import EventScheduler
from .monitor import FlowMonitor
from .packet import CCA_FLOW, CROSS_FLOW, MSS_BYTES, Packet
from .topology import DumbbellTopology

#: Factory producing a fresh congestion-control instance for every run.
CcaFactory = Callable[[], CongestionControl]


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one simulation run; the field defaults are the paper's
    section-4 setup, stated nowhere else.

    ``record_series`` is an observation switch and nothing else: it gates
    the sender's per-ACK series and the queue-depth samples, a run's
    ``(Score, summary)`` and behavior signature are identical either way,
    and it is outside :meth:`fingerprint`, so it moves no cache key or
    snapshot identity.  Every search evaluation (campaign, replay, triage)
    runs with it off; whoever plots one run keeps the default.
    """

    duration: float = 5.0
    bottleneck_rate_mbps: float = 12.0
    propagation_delay: float = 0.02
    queue_capacity: int = 60
    delayed_ack: bool = True
    delack_timeout: float = 0.040
    min_rto: float = 1.0
    sender_start_time: float = 0.0
    record_series: bool = True
    #: Caps scheduler events only: cross-traffic sink arrivals are none.
    max_events: Optional[int] = 2_000_000
    #: Lazily computed by :meth:`fingerprint`, which is why the class is
    #: frozen: a field assigned after the memo would keep the old identity
    #: (copies go through :meth:`with_overrides`).
    _fingerprint_cache: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # The one statement of these ranges: every condition, fuzzing run
        # and command line builds one of these.  NaN fails every comparison.
        if not 0 < self.duration < math.inf:
            raise ValueError("duration must be positive and finite")
        if not 0 < self.bottleneck_rate_mbps < math.inf:
            raise ValueError("bottleneck_rate_mbps must be positive and finite")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")
        if not 0 <= self.propagation_delay < math.inf:
            raise ValueError("propagation_delay must be non-negative and finite")

    def with_overrides(self, **kwargs: Any) -> "SimulationConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def fingerprint(self) -> str:
        """Stable content hash over every outcome-relevant field, for
        evaluation memoization.

        Two configs share a fingerprint iff every field but ``record_series``
        is equal — that flag is an observation switch no outcome depends on —
        so a cached ``(trace, cca, config) -> score`` entry can never be
        served to a run with different simulation parameters.  Computed once
        per config: the evaluation cache rebuilds its key per lookup.
        """
        cached = self._fingerprint_cache
        if cached is not None:
            return cached
        digest = self._digest(omit="record_series")
        object.__setattr__(self, "_fingerprint_cache", digest)
        return digest

    def legacy_fingerprint(self) -> str:
        """The identity a snapshot written before ``record_series`` left
        :meth:`fingerprint` recorded for this simulation: campaigns built
        ``record_series=True`` then, hashed at its field position."""
        return replace(self, record_series=True)._digest()

    def _digest(self, omit: Optional[str] = None) -> str:
        terms = []
        for f in fields(self):
            if f.name.startswith("_") or f.name == omit:
                continue
            terms.append(f"{f.name}={getattr(self, f.name)!r}")
            if f.name == "queue_capacity":
                # The packet size keeps its term at this position: recorded
                # cache keys, snapshots and journals hash it.
                terms.append(f"mss_bytes={MSS_BYTES!r}")
        canonical = ";".join(terms)
        return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


class SimulationTruncated(RuntimeError):
    """``max_events`` ended a run before ``duration``: what was measured
    covers only part of the run, so it is a failed evaluation, not a result."""

    def __init__(self, events_executed: int, sim_time: float, max_events: int) -> None:
        super().__init__(events_executed, sim_time, max_events)
        self.events_executed = events_executed
        self.sim_time = sim_time
        self.max_events = max_events

    def __str__(self) -> str:
        return (
            f"simulation stopped by max_events={self.max_events} after "
            f"{self.events_executed} events, at t={self.sim_time:.6f} s"
        )


@dataclass
class SimulationResult:
    """Everything measured during one run."""

    config: SimulationConfig
    monitor: FlowMonitor
    sender_stats: Any
    cca_name: str
    cca_diagnostics: Dict[str, Any]
    receiver_stats: Dict[str, Any]
    queue_drops: Dict[str, int]
    cross_sent: int
    cross_delivered: int
    link_wasted_opportunities: int
    forced_losses: int
    #: Retransmissions whose segment had already arrived: the receiver's
    #: count of duplicate arrivals (RTO-driven ones are the Fig. 4c chain).
    spurious_retransmissions: int
    #: Scheduler events processed (perf accounting).  Cross-traffic sink
    #: arrivals are counted at service time and are not events.
    events_executed: int

    # ------------------------------------------------------------------ #
    # Convenience metrics
    # ------------------------------------------------------------------ #

    @property
    def duration(self) -> float:
        return self.config.duration

    def throughput_mbps(self) -> float:
        """Average egress throughput of the flow under test over the run."""
        return self.monitor.average_rate_mbps(CCA_FLOW, self.duration)

    def delivered_segments(self, flow: str = CCA_FLOW) -> int:
        return self.monitor.delivered_count(flow)

    def segments_sent(self) -> int:
        return self.monitor.sent_count(CCA_FLOW)

    def windowed_throughput(
        self, window: float, flow: str = CCA_FLOW
    ) -> List[Tuple[float, float]]:
        return self.monitor.windowed_rate(flow, window, self.duration)

    def queueing_delays(self, flow: str = CCA_FLOW) -> List[Tuple[float, float]]:
        return self.monitor.queueing_delays(flow)

    def loss_rate(self, flow: str) -> float:
        return self.monitor.loss_rate(flow)

    def utilization(self) -> float:
        """Fraction of the nominal bottleneck rate the flow under test achieved."""
        if self.config.bottleneck_rate_mbps <= 0:
            return 0.0
        return self.throughput_mbps() / self.config.bottleneck_rate_mbps

    def summary(self) -> Dict[str, Any]:
        """Compact dictionary summary used by reports and the CLI."""
        return {
            "cca": self.cca_name,
            "duration_s": self.duration,
            "throughput_mbps": round(self.throughput_mbps(), 4),
            "utilization": round(self.utilization(), 4),
            "cca_segments_delivered": self.delivered_segments(),
            "cca_segments_sent": self.segments_sent(),
            "cca_drops": self.queue_drops.get(CCA_FLOW, 0),
            "cross_sent": self.cross_sent,
            "cross_delivered": self.cross_delivered,
            "cross_drops": self.queue_drops.get(CROSS_FLOW, 0),
            "retransmissions": self.sender_stats.retransmissions,
            "spurious_retransmissions": self.spurious_retransmissions,
            "rto_count": self.sender_stats.rto_count,
        }


def run_simulation(
    cca_factory: CcaFactory,
    config: SimulationConfig,
    link_trace: Optional[Sequence[float]] = None,
    cross_traffic_times: Optional[Sequence[float]] = None,
    loss_times: Optional[Sequence[float]] = None,
    drop_filter: Optional[Callable[[Packet, float], bool]] = None,
) -> SimulationResult:
    """Run one flow of the given CCA through the dumbbell bottleneck.

    Parameters
    ----------
    cca_factory:
        Zero-argument callable returning a fresh CCA instance (e.g. ``Bbr`` or
        ``lambda: Cubic(ns3_slow_start_bug=True)``).
    config:
        Simulation parameters (``SimulationConfig()`` is the paper's
        section-4 setup).
    link_trace:
        Bottleneck transmission-opportunity times (link-fuzzing mode).  When
        omitted the bottleneck is a fixed-rate link.
    cross_traffic_times:
        Cross-traffic injection times (traffic-fuzzing mode).
    loss_times:
        Forced-loss schedule (loss-fuzzing extension): each time drops the
        next CCA packet departing the bottleneck.
    drop_filter:
        Fault-injection predicate ``f(packet, now) -> bool``; packets for
        which it returns True are dropped before reaching the gateway.  Used
        to reproduce surgical loss patterns (e.g. "drop segment N twice").
    """
    scheduler = EventScheduler()
    try:
        cca = cca_factory()
        topology = DumbbellTopology(
            scheduler,
            cca,
            config,
            link_trace=link_trace,
            cross_traffic_times=cross_traffic_times,
            loss_times=loss_times,
            drop_filter=drop_filter,
        )
    except BaseException:
        # A half-built topology is held only by the scheduler's own links.
        scheduler.clear()
        raise
    try:
        # Telemetry wraps the run at whole-simulation granularity (never
        # per-event: the event loop itself stays untouched) and only ever
        # *writes* counters, so results are bit-identical with telemetry on.
        sim_started = time.perf_counter()
        events_executed = topology.run()
        registry = get_registry()
        registry.inc("sim.simulations")
        registry.inc("sim.events", events_executed)
        sender_stats = topology.sender.stats
        registry.inc("sim.acks", sender_stats.acks)
        registry.inc("sim.acks_sack", sender_stats.sack_acks)
        registry.inc("sim.acks_recovery", sender_stats.recovery_acks)
        registry.observe("sim.wall_s", time.perf_counter() - sim_started)
        if scheduler.now < config.duration:
            raise SimulationTruncated(events_executed, scheduler.now, config.max_events)

        receiver, link = topology.receiver, topology.link
        return SimulationResult(
            config=config,
            monitor=topology.monitor,
            sender_stats=sender_stats,
            cca_name=cca.name,
            cca_diagnostics=cca.diagnostics(),
            receiver_stats={
                "segments_received": receiver.segments_received,
                "acks_sent": receiver.acks_sent,
                "duplicate_segments": receiver.duplicate_segments,
                "rcv_next": receiver.rcv_next,
            },
            queue_drops=dict(link.drops),
            cross_sent=link.cross_sent,
            cross_delivered=len(link.cross_departures),
            link_wasted_opportunities=link.wasted_opportunities,
            forced_losses=topology.forced_losses,
            spurious_retransmissions=receiver.duplicate_segments,
            events_executed=events_executed,
        )
    finally:
        topology.teardown()


def simulate_packet_trace(
    cca_factory: CcaFactory, sim_config: SimulationConfig, trace: Any
) -> SimulationResult:
    """Run one simulation with ``trace`` as the simulator input its class names.

    The one trace -> ``run_simulation`` keyword mapping: duck-typed on the
    trace's ``simulator_input`` declaration (see :mod:`repro.traces.trace`),
    so the simulator stays below the trace layer.
    """
    keyword = getattr(trace, "simulator_input", None)
    if keyword is None:
        raise TypeError(f"cannot simulate trace type {type(trace).__name__}")
    return run_simulation(cca_factory, sim_config, **{keyword: trace.timestamps})
