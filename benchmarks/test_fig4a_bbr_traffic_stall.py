"""Figure 4a: a cross-traffic trace that gets BBR stuck at very low throughput.

The paper's trace was found by traffic fuzzing; this benchmark replays the
trace structure the search converges to (intense bursts spaced roughly one
minimum-RTO apart) and regenerates the figure's series: the BBR flow's
ingress/egress rates and the cross-traffic rate over time.  The asserted
shape is the ``bbr-stall`` finding (:mod:`repro.analysis.findings`): it holds
on the attacked run and not on the clean one.
"""

from __future__ import annotations

from conftest import print_rows, print_series, run_once

from repro.analysis.findings import findings_of
from repro.analysis.timeline import bbr_bug_evidence
from repro.attacks.bbr_stall import bbr_stall_traffic_trace
from repro.netsim.packet import CCA_FLOW, CROSS_FLOW
from repro.netsim.simulation import SimulationConfig, run_simulation
from repro.tcp.cca.bbr import Bbr

DURATION = 6.0


def run_experiment():
    trace = bbr_stall_traffic_trace(duration=DURATION)
    config = SimulationConfig(duration=DURATION)
    attacked = run_simulation(Bbr, config, cross_traffic_times=trace.timestamps)
    clean = run_simulation(Bbr, config)
    return trace, attacked, clean


def test_fig4a_bbr_traffic_stall(benchmark):
    trace, attacked, clean = run_once(benchmark, run_experiment)

    window = 0.5
    print_series(
        "Fig 4a: BBR egress rate (Mbps) under the adversarial traffic trace",
        attacked.windowed_throughput(window=window, flow=CCA_FLOW),
    )
    print_series(
        "Fig 4a: BBR ingress rate (Mbps)",
        attacked.monitor.windowed_rate(CCA_FLOW, window, DURATION, use_ingress=True),
    )
    print_series(
        "Fig 4a: cross-traffic arrival rate (Mbps)",
        attacked.monitor.windowed_rate(CROSS_FLOW, window, DURATION, use_ingress=True),
    )

    evidence = bbr_bug_evidence(attacked)
    tail = [rate for _, rate in attacked.windowed_throughput(window=1.0)[-3:]]
    tail_mbps = sum(tail) / len(tail)
    cross_rate = trace.average_rate_mbps

    print_rows(
        "Fig 4a summary (paper: BBR throughput collapses to ~0 and stays there)",
        [
            {
                "run": "bbr clean",
                "throughput_mbps": clean.throughput_mbps(),
                "tail_3s_mbps": sum(r for _, r in clean.windowed_throughput(1.0)[-3:]) / 3,
            },
            {
                "run": "bbr adversarial",
                "throughput_mbps": attacked.throughput_mbps(),
                "tail_3s_mbps": tail_mbps,
            },
            {
                "run": "cross traffic average",
                "throughput_mbps": cross_rate,
                "tail_3s_mbps": cross_rate,
            },
        ],
    )
    print_rows("Fig 4a mechanism evidence", [evidence.as_dict()])

    assert "bbr-stall" in findings_of(attacked, trace)
    assert findings_of(clean) == []
