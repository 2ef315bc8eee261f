"""Figure 4e: cross traffic that makes a BBR flow hold persistently high delay.

For this finding the paper switched the GA's objective to the 10th-percentile
queueing delay.  The evolved traffic vector (1) fills the queue just before
the BBR flow starts, hiding the true minimum RTT from BBR's RTprop filter,
and (2) keeps cross traffic flowing through BBR's startup/drain phase so the
queue never empties.  BBR then sizes its window off the inflated RTprop and
maintains a large standing queue for the rest of the run.

The paper's delays of 100-250 ms imply a bottleneck buffer of several hundred
packets, so this benchmark uses a 250-packet buffer (the paper does not state
its buffer size).  The asserted property is the shape — while the attack
pattern is in effect the BBR flow's queueing delay sits several times above
the clean-run delay, and the GA's delay objective clearly separates the two
runs.  One divergence from the paper is recorded in EXPERIMENTS.md: in this
reproduction BBR re-learns the true minimum RTT once a loss-recovery episode
drains the queue, so the delay inflation lasts a couple of seconds rather
than the whole run.
"""

from __future__ import annotations

from conftest import print_rows, print_series, run_once

from repro.attacks.bbr_stall import bbr_delay_attack_trace
from repro.netsim.packet import CCA_FLOW, CROSS_FLOW
from repro.netsim.simulation import SimulationConfig, run_simulation
from repro.scoring.performance import HighDelayScore
from repro.scoring.windowed import percentile
from repro.tcp.cca.bbr import Bbr

DURATION = 6.0
QUEUE_CAPACITY = 250


def run_experiment():
    config = SimulationConfig(
        duration=DURATION, queue_capacity=QUEUE_CAPACITY, sender_start_time=0.05
    )
    trace = bbr_delay_attack_trace(
        duration=DURATION, prefill_packets=150, reinforce_packets=300, reinforce_end=1.4
    )
    attacked = run_simulation(Bbr, config, cross_traffic_times=trace.timestamps)
    clean = run_simulation(Bbr, config)
    return trace, attacked, clean


def test_fig4e_bbr_high_delay(benchmark):
    trace, attacked, clean = run_once(benchmark, run_experiment)

    flow_delays = attacked.queueing_delays(CCA_FLOW)
    cross_delays = attacked.queueing_delays(CROSS_FLOW)
    clean_delays = clean.queueing_delays(CCA_FLOW)

    print_series(
        "Fig 4e: BBR flow queueing delay (s, seconds) under the delay attack",
        flow_delays[:: max(1, len(flow_delays) // 30)],
    )
    print_series(
        "Fig 4e: cross-traffic queueing delay (s, seconds)",
        cross_delays[:: max(1, len(cross_delays) // 15)],
    )

    def delay_ms(samples, pct):
        return 1000.0 * percentile([d for _, d in samples], pct)

    attack_window = [(t, d) for t, d in flow_delays if t <= 2.5]
    rows = [
        {
            "run": "bbr clean",
            "median_delay_ms": delay_ms(clean_delays, 50),
            "p90_delay_ms": delay_ms(clean_delays, 90),
            "share_above_100ms": sum(1 for _, d in clean_delays if d > 0.1) / max(len(clean_delays), 1),
        },
        {
            "run": "bbr + delay attack",
            "median_delay_ms": delay_ms(flow_delays, 50),
            "p90_delay_ms": delay_ms(flow_delays, 90),
            "share_above_100ms": sum(1 for _, d in flow_delays if d > 0.1) / max(len(flow_delays), 1),
        },
        {
            "run": "bbr + delay attack (first 2.5 s)",
            "median_delay_ms": delay_ms(attack_window, 50),
            "p90_delay_ms": delay_ms(attack_window, 90),
            "share_above_100ms": sum(1 for _, d in attack_window if d > 0.1) / max(len(attack_window), 1),
        },
    ]
    print_rows("Fig 4e summary (paper: delay pinned at 100-250 ms)", rows)
    print_rows(
        "Fig 4e score (the GA objective uses a low delay percentile)",
        [
            {"run": "clean", "p10_score": HighDelayScore()(clean), "p50_score": HighDelayScore(50)(clean)},
            {"run": "attacked", "p10_score": HighDelayScore()(attacked), "p50_score": HighDelayScore(50)(attacked)},
        ],
    )

    # Shape: while the attack pattern is in effect the BBR flow's delay sits
    # far above the clean run's whole-run median and reaches the paper's
    # 100-250 ms band, and a substantial share of all packets in the attacked
    # run see more than 100 ms of queueing.
    clean_median = delay_ms(clean_delays, 50)
    assert delay_ms(attack_window, 50) > 3.0 * clean_median
    assert delay_ms(attack_window, 90) > 0.1 * 1000  # reaches the 100 ms+ band
    share_high = sum(1 for _, d in flow_delays if d > 0.1) / max(len(flow_delays), 1)
    assert share_high > 0.10
