"""Known adversarial traffic patterns used as baselines for the GA's findings."""

from typing import Dict

from ..traces.trace import PacketTrace
from .bbr_stall import (
    bbr_delay_attack_trace,
    bbr_double_loss_burst_trace,
    bbr_stall_link_trace,
    bbr_stall_traffic_trace,
)
from .cubic_burst import cubic_two_burst_trace
from .lowrate import lowrate_attack_trace


def builtin_attack_traces(duration: float) -> Dict[str, PacketTrace]:
    """Every hand-crafted attack as a named trace of the given duration.

    The campaign subsystem registers these as the initial entries of a fresh
    attack corpus, so each known-bad pattern both gets replayed against every
    CCA under test and seeds the genetic search alongside random traces.
    """
    return {
        "lowrate": lowrate_attack_trace(duration=duration),
        "cubic-two-burst": cubic_two_burst_trace(duration=duration),
        "bbr-stall": bbr_stall_traffic_trace(duration=duration),
        "bbr-double-loss": bbr_double_loss_burst_trace(duration=duration),
        "bbr-delay": bbr_delay_attack_trace(duration=duration),
        "bbr-stall-link": bbr_stall_link_trace(duration=duration),
    }

