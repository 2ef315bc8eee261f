"""Congestion-control algorithms under test."""

import functools
from typing import Callable, Dict

from .base import CongestionControl
from .bbr import Bbr
from .cubic import Cubic
from .reno import Reno

#: Registry of base CCA constructors by name (used by realism scoring, which
#: panels the three paper algorithms without their variants).
CCA_REGISTRY = {
    "reno": Reno,
    "cubic": Cubic,
    "bbr": Bbr,
}

#: Registry of every fuzzable CCA *variant* by name, shared by the CLI, the
#: campaign subsystem and the tests.  Variants use ``functools.partial``
#: rather than lambdas so the factories can cross the multiprocessing pickle
#: boundary of the process evaluation backend.
CCA_FACTORIES: Dict[str, Callable[[], CongestionControl]] = {
    "reno": Reno,
    "cubic": Cubic,
    "cubic-ns3bug": functools.partial(Cubic, ns3_slow_start_bug=True),
    "bbr": Bbr,
    "bbr-fixed": functools.partial(Bbr, probe_rtt_on_rto=True),
}


def cca_factory(name: str) -> Callable[[], CongestionControl]:
    """Look up a CCA variant factory by name, with a helpful error."""
    try:
        return CCA_FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(CCA_FACTORIES))
        raise ValueError(f"unknown CCA {name!r} (known: {known})") from None

