"""The hashed inputs that key every cache entry, journal record and corpus.

Three things hash their inputs: ``cca_identity`` hashes a fresh CCA's
``vars()``, ``ScoreFunction.fingerprint`` hashes the score objects' ``vars()``,
and ``trace_digest`` hashes a serialised trace, metadata included.  A
refactor that renames an attribute, changes a constant or reorders an
attack's metadata moves these values, and with them every cache key, CCA
identity, corpus fingerprint and journal trace reference written before it.
A move is a named change with a legacy note (``core.fuzzer.LEGACY_CCA_KEYS``
for CCA identities), never a side effect.
"""

import hashlib

from repro.attacks import builtin_attack_traces
from repro.exec.cache import factory_identity
from repro.scoring.objectives import OBJECTIVES, make_score_function
from repro.tcp.cca import CCA_FACTORIES
from repro.traces.trace import MODES

#: The benchmark workloads' budgets (0.12–1.0 s) and the figure lengths.
ATTACK_DURATIONS = (0.12, 0.2, 0.3, 1.0, 2.0, 5.0, 6.0)


def test_registered_cca_identities_are_pinned():
    # The BBR pair moved once, when ``Bbr`` stopped keeping its per-ACK
    # histories; ``core.fuzzer.LEGACY_CCA_KEYS`` maps the old pair here.
    assert {name: factory_identity(f) for name, f in CCA_FACTORIES.items()} == {
        "bbr": "bbr:36361303b618935d",
        "bbr-fixed": "bbr:cd7ded59cf1641e7",
        "cubic": "cubic:5dd9eef7949b43f2",
        "cubic-ns3bug": "cubic:1a05b443a3f1ca54",
        "reno": "reno:3870615df1b4bd03",
    }


def test_score_fingerprints_are_pinned():
    # Link and loss mode add no trace score, so their fingerprints agree.
    assert {
        (objective, mode): make_score_function(objective, mode).fingerprint()
        for objective in OBJECTIVES
        for mode in MODES
    } == {
        ("throughput", "link"): "1d325978675a2e1b",
        ("throughput", "traffic"): "490c274c135273b1",
        ("throughput", "loss"): "1d325978675a2e1b",
        ("delay", "link"): "a78dace5f204ef66",
        ("delay", "traffic"): "6c629be7e6d33bdc",
        ("delay", "loss"): "a78dace5f204ef66",
        ("loss", "link"): "8159e18fc129e1d4",
        ("loss", "traffic"): "5e09d2779952ac9b",
        ("loss", "loss"): "8159e18fc129e1d4",
    }


def test_builtin_attack_traces_are_pinned():
    # One digest per attack over its ``to_json()`` at every duration: the
    # timestamps and the metadata, byte for byte.
    digests = {}
    for duration in ATTACK_DURATIONS:
        for name, trace in builtin_attack_traces(duration).items():
            digests.setdefault(name, hashlib.blake2b(digest_size=8)).update(
                trace.to_json().encode("utf-8")
            )
    assert {name: digest.hexdigest() for name, digest in digests.items()} == {
        "lowrate": "fa919576f0747aff",
        "cubic-two-burst": "04dfdda11cc77fbe",
        "bbr-stall": "dd1e81d48fae81d9",
        "bbr-double-loss": "cd6ea550d8d1307f",
        "bbr-delay": "163db40deaf1aaaf",
        "bbr-stall-link": "2c8cbc0dabf4f2a7",
    }
