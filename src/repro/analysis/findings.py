"""The paper's section-4 findings, each stated once as a predicate over one run.

A finding judges one simulation: its :class:`SimulationResult` plus the
trace that drove it (``None`` for a clean or a drop-filter run), the same
pair a :class:`~repro.scoring.base.ScoreFunction` reads.  No rule runs a second
simulation.  Each threshold is scaled by the run's own condition (the rate
the path offered, its minimum RTO) and placed between the values measured on
the builtin attacks at 6 s on the default condition, quoted in each rule.

:func:`verdict_table` evaluates every rule for every registered CCA on every
known input (:func:`known_runs`); the tests pin that table.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..attacks import builtin_attack_traces
from ..attacks.fault_injection import lose_segment_and_retransmission
from ..netsim.link import mbps_to_pps
from ..netsim.simulation import (
    SimulationConfig,
    SimulationResult,
    run_simulation,
    simulate_packet_trace,
)
from ..tcp.cca import CCA_FACTORIES
from ..traces.trace import PacketTrace
from .timeline import bbr_bug_evidence

Finding = Callable[[SimulationResult, Optional[PacketTrace]], bool]

#: :func:`known_runs`' name for the ``lose_segment_and_retransmission(2000)`` input.
DOUBLE_LOSS_INPUT = "double-loss-filter"


def _offered_pps(result: SimulationResult, trace: Optional[PacketTrace]) -> float:
    """Packets/s the bottleneck offered: a link trace's own rate, else the configured rate."""
    if trace is not None and trace.mode == "link":
        return trace.packet_count / trace.duration
    return mbps_to_pps(result.config.bottleneck_rate_mbps)


def _bbr_stall(result: SimulationResult, trace: Optional[PacketTrace]) -> bool:
    """Section 4.1 (Figs. 4a-4c): BBR's bandwidth estimate ends the run under
    a third of the rate the path left the flow (offered minus the cross
    traffic served).  One rule for both inputs: a traffic trace takes the
    bandwidth through cross traffic, a link trace through the service curve.

    Measured: ``bbr-stall`` 179 and ``bbr-stall-link`` 50 packets/s of the
    ~780 and 1,000 left; ``lowrate``, the nearest miss, 431 of ~760; clean 1,000.
    """
    evidence = bbr_bug_evidence(result)
    if evidence.peak_bandwidth_estimate_pps <= 0:  # the CCA keeps no estimate
        return False
    left = _offered_pps(result, trace) - result.cross_delivered / result.duration
    return evidence.final_bandwidth_estimate_pps < left / 3.0


def _cubic_slow_start_overshoot(result: SimulationResult, trace: Optional[PacketTrace]) -> bool:
    """Section 4.2: one slow-start ACK opened the window by most of the data
    the path carries in one minimum RTO (the ns-3 CUBIC adds a post-RTO
    cumulative ACK unclamped; Linux stops at ssthresh).

    Measured, with the threshold at 750 of the 1,000 packets one RTO
    carries: ``cubic-ns3bug`` 1,053-1,059 and ``cubic`` 527-530 under both the
    double-loss filter and ``cubic-two-burst``.
    """
    jump = float(result.cca_diagnostics.get("max_slow_start_jump", 0.0))
    return jump > 0.75 * _offered_pps(result, trace) * result.config.min_rto


def _reno_low_rate(result: SimulationResult, trace: Optional[PacketTrace]) -> bool:
    """Section 4.3: a low-rate (shrew) attack.  Cross traffic averaging under
    half the offered rate leaves the flow under half of it, through at least
    one retransmission timeout.

    Measured on Reno: ``lowrate`` (3.4 Mbps of cross traffic) leaves 4.6 of
    12 Mbps; ``bbr-stall``, also bursts about one minimum RTO apart, 5.8;
    clean 11.9.
    """
    half = 0.5 * _offered_pps(result, trace)
    return (
        0 < result.cross_sent / result.duration < half
        and result.delivered_segments() / result.duration < half
        and result.sender_stats.rto_count >= 1
    )


#: Every finding by name: one entry per distinct rule.
FINDINGS: Dict[str, Finding] = {
    "bbr-stall": _bbr_stall,
    "cubic-slow-start-overshoot": _cubic_slow_start_overshoot,
    "reno-low-rate": _reno_low_rate,
}


def findings_of(result: SimulationResult, trace: Optional[PacketTrace] = None) -> List[str]:
    """Names of the findings that hold on this run, in registry order."""
    return [name for name, holds in FINDINGS.items() if holds(result, trace)]


def known_runs(
    config: SimulationConfig,
) -> Iterator[Tuple[str, str, Optional[PacketTrace], SimulationResult]]:
    """``(cca, input, trace, result)`` for each registered CCA on each known
    input: the clean run, the double-loss filter and each builtin attack."""
    inputs: Dict[str, Optional[PacketTrace]] = {"clean": None, DOUBLE_LOSS_INPUT: None}
    inputs.update(builtin_attack_traces(config.duration))
    for cca, factory in CCA_FACTORIES.items():
        for name, trace in inputs.items():
            if trace is not None:
                result = simulate_packet_trace(factory, config, trace)
            else:
                drops = lose_segment_and_retransmission(2000) if name == DOUBLE_LOSS_INPUT else None
                result = run_simulation(factory, config, drop_filter=drops)
            yield cca, name, trace, result


def verdict_table(config: Optional[SimulationConfig] = None) -> List[Dict[str, object]]:
    """One row per :func:`known_runs` run, with one boolean column per finding.

    ``config`` defaults to 6 s of the default condition without per-ACK
    series, as campaigns run.
    """
    runs = known_runs(config or SimulationConfig(duration=6.0, record_series=False))
    return [
        {"cca": cca, "input": name, **{f: holds(result, trace) for f, holds in FINDINGS.items()}}
        for cca, name, trace, result in runs
    ]
