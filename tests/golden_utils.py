"""Deep, stable digests of simulation outputs.

Used by the golden regression tests (and the capture script that generated
``tests/golden_sim_results.json``) to assert that simulator optimizations
preserve bit-identical results: every derived series is hashed over its
exact float bit patterns, so even a 1-ulp drift in any metric changes the
digest.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any, Dict, Iterable

from repro.netsim.packet import CCA_FLOW, CROSS_FLOW
from repro.netsim.simulation import SimulationResult
from repro.traces.trace import unpack_le


def list_timestamps(payload: Any) -> Any:
    """``payload`` with every serialised trace's packed timestamps spelled as
    the list files held before: a digest pinned on such a file still holds."""
    if isinstance(payload, list):
        return [list_timestamps(item) for item in payload]
    if not isinstance(payload, dict):
        return payload
    decoded = {key: list_timestamps(value) for key, value in payload.items()}
    if "timestamps_f64le" in decoded:
        decoded["timestamps"] = unpack_le(decoded.pop("timestamps_f64le"))
    return decoded


def _hash_floats(values: Iterable[float]) -> str:
    flat = list(values)
    return hashlib.blake2b(
        struct.pack(f"<{len(flat)}d", *flat), digest_size=16
    ).hexdigest()


def _hash_pairs(pairs: Iterable[Any]) -> str:
    flat: list = []
    for pair in pairs:
        flat.extend(float(v) for v in pair)
    return _hash_floats(flat)


def result_digest(result: SimulationResult) -> Dict[str, Any]:
    """Everything observable about a run, hashed bit-exactly.

    Scalar fields are kept verbatim (JSON round-trips Python floats exactly);
    per-packet series are collapsed to blake2b digests over their raw double
    bit patterns.
    """
    monitor = result.monitor
    return {
        "summary": {k: v for k, v in result.summary().items()},
        "egress_times_cca": _hash_floats(monitor.egress_times(CCA_FLOW)),
        "egress_times_cross": _hash_floats(monitor.egress_times(CROSS_FLOW)),
        "ingress_times_cca": _hash_floats(monitor.ingress_times(CCA_FLOW)),
        "ingress_times_cross": _hash_floats(monitor.ingress_times(CROSS_FLOW)),
        "queueing_delays": _hash_pairs(result.queueing_delays()),
        "queueing_delays_cross": _hash_pairs(result.queueing_delays(CROSS_FLOW)),
        "max_egress_gap_cross": monitor.max_egress_gap(CROSS_FLOW, result.duration),
        "windowed_throughput": _hash_pairs(result.windowed_throughput(window=0.25)),
        "windowed_ingress_cross": _hash_pairs(
            monitor.windowed_rate(
                CROSS_FLOW,
                0.25,
                result.duration,
                use_ingress=True,
            )
        ),
        "queue_depth": _hash_pairs(monitor.queue_depth),
        "cwnd_series": _hash_pairs(result.sender_stats.cwnd_series),
        "rtt_series": _hash_pairs(result.sender_stats.rtt_series),
        "loss_rate_cca": result.loss_rate(CCA_FLOW),
        "loss_rate_cross": result.loss_rate(CROSS_FLOW),
        "throughput_mbps": result.throughput_mbps(),
        "queue_drops": dict(result.queue_drops),
        "receiver_stats": dict(result.receiver_stats),
        "forced_losses": result.forced_losses,
        "link_wasted_opportunities": result.link_wasted_opportunities,
        "cross_sent": result.cross_sent,
        "cross_delivered": result.cross_delivered,
        # The result no longer restates this count; the key keeps every
        # pinned digest string.
        "cross_dropped_at_queue": result.queue_drops.get(CROSS_FLOW, 0),
    }
