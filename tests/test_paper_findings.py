"""Integration tests for the paper's findings (section 4).

These are the repository's acceptance tests.  Each finding's rule lives
once, in :mod:`repro.analysis.findings`; these tests pin where the rules
hold, as one verdict table over every registered CCA and every known input.
The only comparisons left are the ones a single-run rule cannot state: the
Fig. 4c mechanism against a clean run, the ns-3 CUBIC against the correct
one, and the ProbeRTT-on-RTO fix against default BBR.
"""

from __future__ import annotations

import pytest

from repro.analysis.findings import (
    DOUBLE_LOSS_INPUT,
    FINDINGS,
    findings_of,
    known_runs,
    verdict_table,
)
from repro.analysis.timeline import bbr_bug_evidence
from repro.attacks.lowrate import lowrate_attack_trace
from repro.netsim.packet import CCA_FLOW
from repro.netsim.simulation import SimulationConfig, simulate_packet_trace
from repro.tcp.cca import CCA_FACTORIES
from repro.tcp.cca.reno import Reno

#: Per finding, the ``(cca, input)`` runs of :func:`known_runs` where it
#: holds, as measured.  ``reno-low-rate`` holds for every CCA under both
#: periodic-burst traces (``bbr-stall``'s bursts are also about one minimum
#: RTO apart), and ``bbr-stall`` for the ProbeRTT-on-RTO BBR under the
#: traffic trace too (its estimate ends at 91 of 1,000 packets/s); the fix
#: escapes the link trace only.
PINNED_TABLE = {
    "bbr-stall": {("bbr", "bbr-stall"), ("bbr", "bbr-stall-link"), ("bbr-fixed", "bbr-stall")},
    "cubic-slow-start-overshoot": {
        ("cubic-ns3bug", DOUBLE_LOSS_INPUT),
        ("cubic-ns3bug", "cubic-two-burst"),
    },
    "reno-low-rate": {(cca, attack) for cca in CCA_FACTORIES for attack in ("lowrate", "bbr-stall")},
}


@pytest.fixture(scope="module")
def runs():
    """Every registered CCA on every known input, run once, as campaigns run
    them (6 s, no per-ACK series)."""
    config = SimulationConfig(duration=6.0, record_series=False)
    return {(cca, name): (trace, result) for cca, name, trace, result in known_runs(config)}


@pytest.fixture(scope="module")
def table(runs):
    return {cell: findings_of(result, trace) for cell, (trace, result) in runs.items()}


def holding(table, finding):
    return {cell for cell, found in table.items() if finding in found}


def result_of(runs, cca, name):
    return runs[(cca, name)][1]


class TestVerdictTable:
    def test_table_is_pinned(self, table):
        assert {finding: holding(table, finding) for finding in FINDINGS} == PINNED_TABLE

    def test_no_finding_holds_on_a_clean_run(self, table):
        assert [cell for cell, found in table.items() if cell[1] == "clean" and found] == []

    def test_verdicts_do_not_depend_on_record_series(self, table):
        rows = verdict_table(SimulationConfig(duration=6.0, record_series=True))
        assert {(r["cca"], r["input"]): [f for f in FINDINGS if r[f]] for r in rows} == table


class TestBbrStallMechanism:
    """Section 4.1 / Fig. 4c: RTO -> spurious retransmissions -> corrupted rounds.

    A clean run already shows the chain at a lower level (one RTO during the
    startup overshoot on this shallow buffer), so each step of the double
    loss's chain is measured against it.
    """

    @pytest.fixture(scope="class")
    def double_loss(self, runs):
        return result_of(runs, "bbr", DOUBLE_LOSS_INPUT), result_of(runs, "bbr", "clean")

    def test_double_loss_forces_rto(self, double_loss):
        attacked, clean = double_loss
        assert attacked.sender_stats.rto_count > clean.sender_stats.rto_count

    def test_rto_produces_spurious_retransmissions(self, double_loss):
        attacked, clean = double_loss
        assert attacked.spurious_retransmissions >= clean.spurious_retransmissions + 10

    def test_probe_rounds_end_prematurely(self, double_loss):
        attacked, _ = double_loss
        assert bbr_bug_evidence(attacked).premature_round_ends >= 10

    def test_mechanism_evidence_far_exceeds_clean_baseline(self, double_loss, table):
        attacked, clean = double_loss
        assert (
            bbr_bug_evidence(attacked).premature_round_ends
            >= bbr_bug_evidence(clean).premature_round_ends + 10
        )
        # The clean run's one startup RTO is not a stall.
        assert "bbr-stall" not in table[("bbr", "clean")]


class TestBbrStallTrace:
    """Section 4.1 / Figs. 4a-4b: one rule, both fixtures."""

    def test_throughput_collapse_exceeds_cross_traffic_share(self, table):
        assert ("bbr", "bbr-stall") in holding(table, "bbr-stall")

    def test_bandwidth_estimate_collapses(self, table):
        assert ("bbr", "bbr-stall-link") in holding(table, "bbr-stall")


class TestCubicSlowStartBug:
    """Section 4.2: the NS3 slow-start clamp bug."""

    def test_bug_variant_jumps_past_ssthresh(self, table):
        cells = holding(table, "cubic-slow-start-overshoot")
        for fixture in (DOUBLE_LOSS_INPUT, "cubic-two-burst"):
            assert ("cubic-ns3bug", fixture) in cells
            assert ("cubic", fixture) not in cells

    def test_bug_variant_causes_more_catastrophic_losses(self, runs):
        buggy = result_of(runs, "cubic-ns3bug", DOUBLE_LOSS_INPUT)
        correct = result_of(runs, "cubic", DOUBLE_LOSS_INPUT)
        assert buggy.queue_drops.get(CCA_FLOW, 0) > correct.queue_drops.get(CCA_FLOW, 0)


class TestRenoLowRateAttack:
    """Section 4.3: the rediscovered low-rate (shrew) attack."""

    def test_periodic_bursts_cause_rtos_and_collapse(self, table):
        assert ("reno", "lowrate") in holding(table, "reno-low-rate")

    def test_attack_uses_small_fraction_of_link(self):
        # The same bursts 0.4 s apart (7.8 Mbps) hurt Reno even more, through
        # RTOs too, but a flood of most of the link is not a low-rate attack.
        config = SimulationConfig(duration=6.0, record_series=False)
        flood = lowrate_attack_trace(duration=config.duration, period=0.4)
        assert findings_of(simulate_packet_trace(Reno, config, flood), flood) == []


class TestProbeRttOnRtoMitigation:
    """Section 4.1 / Fig. 4d: the proposed fix reduces the damage."""

    def test_fix_delivers_at_least_as_much_under_attack(self, runs):
        default = result_of(runs, "bbr", "bbr-stall")
        fixed = result_of(runs, "bbr-fixed", "bbr-stall")
        assert fixed.delivered_segments() >= 0.95 * default.delivered_segments()

    def test_fix_does_not_hurt_clean_performance(self, runs):
        default = result_of(runs, "bbr", "clean")
        fixed = result_of(runs, "bbr-fixed", "clean")
        assert fixed.throughput_mbps() > 0.9 * default.throughput_mbps()
