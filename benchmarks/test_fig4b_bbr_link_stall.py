"""Figure 4b: a link (service-curve) trace that gets BBR stuck.

Link fuzzing controls when the bottleneck serves packets while keeping the
average rate fixed at 12 Mbps.  The trace replayed here has the structure the
search converges to: service outages that cover a retransmission timeout,
with catch-up bursts preserving the packet budget.  The figure's series is
BBR's ingress/egress rate against the link's available rate; the asserted
shape is the same ``bbr-stall`` rule as Fig. 4a's, on the link trace.
"""

from __future__ import annotations

from conftest import print_rows, print_series, run_once

from repro.analysis import bbr_bug_evidence, findings_of
from repro.attacks import bbr_stall_link_trace
from repro.netsim import CCA_FLOW, SimulationConfig, run_simulation
from repro.tcp import Bbr

DURATION = 6.0


def run_experiment():
    trace = bbr_stall_link_trace(duration=DURATION)
    config = SimulationConfig(duration=DURATION)
    attacked = run_simulation(Bbr, config, link_trace=trace.timestamps)
    clean = run_simulation(Bbr, config)
    return trace, attacked, clean


def test_fig4b_bbr_link_stall(benchmark):
    trace, attacked, clean = run_once(benchmark, run_experiment)

    print_series(
        "Fig 4b: link service rate (Mbps) offered by the adversarial trace",
        trace.windowed_rates_mbps(0.5),
    )
    print_series(
        "Fig 4b: BBR egress rate (Mbps) under the adversarial link trace",
        attacked.windowed_throughput(window=0.5, flow=CCA_FLOW),
    )
    evidence = bbr_bug_evidence(attacked)
    print_rows(
        "Fig 4b summary (paper: same stall triggered through the link schedule)",
        [
            {"run": "bbr clean", "throughput_mbps": clean.throughput_mbps()},
            {"run": "bbr adversarial link", "throughput_mbps": attacked.throughput_mbps()},
            {"run": "link average rate", "throughput_mbps": trace.average_rate_mbps},
        ],
    )
    print_rows("Fig 4b mechanism evidence", [evidence.as_dict()])

    assert findings_of(attacked, trace) == ["bbr-stall"]
    assert findings_of(clean) == []
