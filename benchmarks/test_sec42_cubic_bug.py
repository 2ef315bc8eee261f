"""Section 4.2: the NS3 CUBIC slow-start CWND-update bug.

A segment and its fast retransmission are lost, forcing an RTO and a fall
back to slow start.  When the second retransmission is finally ACKed the
cumulative ACK jumps over everything the receiver had buffered.  NS3's CUBIC
adds that entire jump to the congestion window without clamping at ssthresh,
fires off roughly an RTO's worth of data in one burst and suffers
catastrophic losses; the correct (Linux) implementation clamps at ssthresh.

The benchmark runs both variants through the identical loss pattern: the
``cubic-slow-start-overshoot`` finding (:mod:`repro.analysis.findings`)
holds for the NS3 variant only, and its loss burst is the larger.
"""

from __future__ import annotations

from conftest import print_rows, run_once

from repro.analysis.findings import findings_of
from repro.attacks.fault_injection import lose_segment_and_retransmission
from repro.netsim.packet import CCA_FLOW
from repro.netsim.simulation import SimulationConfig, run_simulation
from repro.tcp.cca.cubic import Cubic

DURATION = 6.0
VICTIM_SEGMENT = 2000


def run_experiment():
    config = SimulationConfig(duration=DURATION)
    correct = run_simulation(
        Cubic, config, drop_filter=lose_segment_and_retransmission(VICTIM_SEGMENT)
    )
    buggy = run_simulation(
        lambda: Cubic(ns3_slow_start_bug=True),
        config,
        drop_filter=lose_segment_and_retransmission(VICTIM_SEGMENT),
    )
    return correct, buggy


def test_sec42_cubic_slow_start_bug(benchmark):
    correct, buggy = run_once(benchmark, run_experiment)

    def row(label, result):
        return {
            "variant": label,
            "throughput_mbps": result.throughput_mbps(),
            "max_single_ack_cwnd_jump": result.cca_diagnostics["max_slow_start_jump"],
            "packets_dropped": result.queue_drops.get(CCA_FLOW, 0),
            "retransmissions": result.sender_stats.retransmissions,
            "rto_count": result.sender_stats.rto_count,
        }

    print_rows(
        "Section 4.2: CUBIC slow-start update after the post-RTO cumulative ACK",
        [row("correct (Linux clamp)", correct), row("ns3 bug (no clamp)", buggy)],
    )

    # The seed event is identical (the same RTOs)...
    assert buggy.sender_stats.rto_count == correct.sender_stats.rto_count
    # ...but only the NS3 variant converts the cumulative jump into a huge
    # one-ACK window increase and a correspondingly larger loss burst.
    assert findings_of(buggy) == ["cubic-slow-start-overshoot"]
    assert findings_of(correct) == []
    assert buggy.queue_drops.get(CCA_FLOW, 0) > 1.5 * correct.queue_drops.get(CCA_FLOW, 0)
