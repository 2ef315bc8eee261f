"""Figure 5: realism scoring of link traces via a multi-CCA reference panel.

The paper's future-work section proposes judging a trace's realism by how
well a panel of standard CCAs performs on it: traces on which at least a few
algorithms do fine are "valid"; traces that make everyone look bad (e.g. no
bandwidth early, all of it late) are "invalid" and say nothing about the CCA
under test.  Figure 5 shows the two resulting families of service curves.

This benchmark scores unconstrained DIST_PACKETS traces (as the paper does)
plus two hand-built extremes, and checks the partition behaves as described.
"""

from __future__ import annotations

from conftest import print_rows, run_once

from repro.netsim.simulation import SimulationConfig
from repro.scoring.realism import RealismScorer
from repro.traces.distpackets import dist_packets
from repro.traces.generator import LinkTraceGenerator
from repro.traces.trace import LinkTrace

DURATION = 3.0


def build_traces():
    import random

    generator = LinkTraceGenerator(
        duration=DURATION, average_rate_mbps=12.0, seed=21, rate_bound=None
    )
    random_traces = generator.generate_population(4)

    packet_budget = random_traces[0].packet_count
    uniform = LinkTrace(
        timestamps=[i * DURATION / packet_budget for i in range(packet_budget)],
        duration=DURATION,
    )
    # The paper's canonical "invalid" example: almost nothing early, everything late.
    rng = random.Random(3)
    starved_early = LinkTrace(
        timestamps=sorted(
            dist_packets(packet_budget, DURATION * 0.7, DURATION, rng, rate_bound=None)
        ),
        duration=DURATION,
    )
    return random_traces, uniform, starved_early


def run_experiment():
    random_traces, uniform, starved_early = build_traces()
    scorer = RealismScorer(config=SimulationConfig(duration=DURATION), threshold=0.6)
    reports = {
        "uniform 12 Mbps": scorer.score(uniform),
        "starved-early": scorer.score(starved_early),
    }
    for index, trace in enumerate(random_traces):
        reports[f"unconstrained #{index}"] = scorer.score(trace)
    return reports


def test_fig5_realism_partition(benchmark):
    reports = run_once(benchmark, run_experiment)

    rows = []
    for name, report in reports.items():
        rows.append(
            {
                "trace": name,
                "realism_score": report.score,
                "verdict": "valid" if report.is_realistic else "invalid",
                **{f"util_{cca}": value for cca, value in report.per_cca_utilization.items()},
            }
        )
    print_rows("Fig 5: realism scores (panel = Reno / CUBIC / BBR)", rows)

    # Shape: a steady full-rate link is clearly valid; the starved-early trace
    # (the paper's example of an unrealistic curve) is rejected.
    assert reports["uniform 12 Mbps"].is_realistic
    assert not reports["starved-early"].is_realistic
    assert reports["uniform 12 Mbps"].score > reports["starved-early"].score
