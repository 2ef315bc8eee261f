"""The packet size is one constant, ``MSS_BYTES``: the bottleneck serves one
MTU-sized packet per opportunity (the MahiMahi model), so no config, trace,
generator, attack builder or packet can set another, and the identities
recorded while it was a field still hold."""

from __future__ import annotations

import pytest

from repro.attacks import builtin_attack_traces
from repro.netsim.packet import MSS_BYTES, Packet
from repro.netsim.simulation import SimulationConfig
from repro.traces.generator import LinkTraceGenerator, TrafficTraceGenerator
from repro.traces.trace import LinkTrace, PacketTrace, TrafficTrace


@pytest.mark.parametrize("knob, build", [
    ("mss_bytes", lambda: SimulationConfig(mss_bytes=9000)),
    ("mss_bytes", lambda: LinkTrace([0.1, 0.2], 1.0, mss_bytes=9000)),
    ("mss_bytes", lambda: TrafficTrace([0.1], 1.0, mss_bytes=9000)),
    ("mss_bytes", lambda: LinkTraceGenerator(1.0, mss_bytes=9000)),
    ("mss_bytes", lambda: TrafficTraceGenerator(1.0, 10, mss_bytes=9000)),
    ("mss_bytes", lambda: builtin_attack_traces(6.0, mss_bytes=1500)),
    ("size_bytes", lambda: Packet(0, size_bytes=1500)),
], ids=[
    "SimulationConfig", "LinkTrace", "TrafficTrace", "LinkTraceGenerator",
    "TrafficTraceGenerator", "builtin_attack_traces", "Packet",
])
def test_removed_knobs_are_rejected(knob, build):
    # Nothing but tests ever set these to anything but 1500, and the
    # simulator never read the trace's copy; passing one is an error, never
    # a silently ignored setting.
    with pytest.raises(TypeError, match=knob):
        build()


@pytest.mark.parametrize("args", [(0, 1500), (0, 1500, False, 0.0)], ids=["two", "four"])
def test_a_packet_takes_no_size_positionally(args):
    # Only ``seq``, ``is_retransmit`` and ``sent_time`` are positional, and
    # all three are required: a size passed where ``is_retransmit`` sat
    # would otherwise be read as a (truthy) retransmission flag.
    with pytest.raises(TypeError):
        Packet(*args)


class TestTraceFormat:
    """The on-disk form is unchanged: ``mss_bytes`` is written as 1500 and a
    file may omit it, but a trace claiming another size is malformed."""

    def test_another_size_is_malformed(self):
        payload = dict(LinkTrace([0.1, 0.2], 1.0).to_dict(), mss_bytes=9000)
        with pytest.raises(ValueError, match="malformed trace: mss_bytes is 9000"):
            PacketTrace.from_dict(payload)

    def test_1500_or_no_size_reads(self):
        trace = LinkTrace([0.1, 0.2], 1.0)
        payload = trace.to_dict()
        assert payload["mss_bytes"] == MSS_BYTES == 1500
        del payload["mss_bytes"]
        for readable in (trace.to_dict(), payload):
            assert PacketTrace.from_dict(readable).fingerprint() == trace.fingerprint()


def test_identities_recorded_with_the_field_still_hold():
    # Captured while the packet size was a settable field: every sim
    # fingerprint, cache key, snapshot identity and trace digest is unchanged.
    assert SimulationConfig().fingerprint() == "12ba27139c11aa03f67e39acbaa23c1d"
    assert (
        SimulationConfig(record_series=False).legacy_fingerprint()
        == "961e528b746eacf353939b5ff3f4cd58"
    )
    assert LinkTrace([0.1, 0.2], 1.0).fingerprint() == "54dfdbc4e8a3d05a11ad8d27ee0cd55d"
