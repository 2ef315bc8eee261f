"""Figure 4c: the mechanism behind the BBR stall.

The paper's Fig. 4c is a timeline: a segment and its fast retransmission are
lost, the connection waits out the 1-second minimum RTO, the RTO marks the
still-unacknowledged tail as lost, BBR spuriously retransmits those segments
while their SACKs are in flight, and the arriving SACKs — now matched against
the rewritten ``prior_delivered`` stamps — end probing rounds prematurely and
poison the bandwidth samples.

This benchmark reproduces the seed event surgically (TargetedLoss drops one
segment twice, nothing else) and reports every observable step of that chain,
for default BBR and for the paper's ProbeRTT-on-RTO mitigation.
"""

from __future__ import annotations

from conftest import print_rows, run_once

from repro.analysis.timeline import bbr_bug_evidence, describe_bug_timeline
from repro.attacks.fault_injection import lose_segment_and_retransmission
from repro.netsim.simulation import SimulationConfig, run_simulation
from repro.tcp.cca.bbr import Bbr

DURATION = 6.0
VICTIM_SEGMENT = 2000


def run_experiment():
    config = SimulationConfig(duration=DURATION)
    default = run_simulation(
        Bbr, config, drop_filter=lose_segment_and_retransmission(VICTIM_SEGMENT)
    )
    fixed = run_simulation(
        lambda: Bbr(probe_rtt_on_rto=True),
        config,
        drop_filter=lose_segment_and_retransmission(VICTIM_SEGMENT),
    )
    clean = run_simulation(Bbr, config)
    return default, fixed, clean


def test_fig4c_bbr_stall_mechanism(benchmark):
    default, fixed, clean = run_once(benchmark, run_experiment)

    default_evidence = bbr_bug_evidence(default)
    fixed_evidence = bbr_bug_evidence(fixed)
    clean_evidence = bbr_bug_evidence(clean)

    print()
    print(describe_bug_timeline(default_evidence))
    print_rows(
        "Fig 4c: mechanism footprint (default vs ProbeRTT-on-RTO vs clean run)",
        [
            {"run": "bbr default + double loss", **default_evidence.as_dict()},
            {"run": "bbr fixed + double loss", **fixed_evidence.as_dict()},
            {"run": "bbr clean", **clean_evidence.as_dict()},
        ],
    )

    # The chain of Fig. 4c, step by step, against the clean run (which already
    # sees one RTO, and its spurious retransmissions and premature round
    # ends, during the startup overshoot on this shallow buffer):
    # 1. the double loss forces an extra retransmission timeout,
    assert default_evidence.rto_count > clean_evidence.rto_count
    # 2. the RTO causes spurious retransmissions of segments whose SACKs were
    #    still in flight,
    assert (
        default_evidence.spurious_retransmissions
        >= clean_evidence.spurious_retransmissions + 10
    )
    # 3. and those rewritten prior_delivered stamps end probing rounds
    #    prematurely often enough to churn through the 10-round max filter.
    assert (
        default_evidence.premature_round_ends
        >= clean_evidence.premature_round_ends + 10
    )
