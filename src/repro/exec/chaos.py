"""Deterministic chaos harness for the evaluation layer.

A :class:`ChaosPlan` decides, purely from a trace fingerprint, whether an
evaluation should misbehave and how: raise (``crash``), sleep far past any
reasonable deadline (``hang``), return a malformed outcome (``garbage``) or
kill its process without unwinding (``exit``).  Selection is a keyed hash of
the fingerprint, so the same plan faults the same jobs in every process, on
every retry, in every run — which is what lets the fault-tolerance tests
assert exact quarantine contents and bit-identical healthy outcomes.

Plans reach evaluations two ways: :func:`install_chaos` sets a process-global
plan (and mirrors it into the ``REPRO_CHAOS`` environment variable so
subprocesses inherit it), and the supervised process pool additionally
ships the active plan inside each job message, so a long-lived pool observes
plan changes made after its workers forked.

This module is a test/hardening harness: production campaigns simply never
install a plan, and :func:`active_plan` returns ``None`` at zero cost.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

#: Every fault kind a plan may inject.
CHAOS_KINDS = ("crash", "hang", "garbage", "exit")

#: Environment variable carrying a JSON-encoded plan into subprocesses.
CHAOS_ENV_VAR = "REPRO_CHAOS"

_FRACTION_SCALE = 10**6


@dataclass(frozen=True)
class ChaosPlan:
    """Deterministic mapping from trace fingerprints to injected faults.

    ``faults`` pins explicit fingerprints to fault kinds; ``fraction``
    additionally faults that share of all fingerprints, picked by a keyed
    blake2b hash (change ``salt`` to fault a different subset).  A plan is
    immutable and picklable: the supervised pool sends it along with each
    job so pool workers need no shared state.
    """

    faults: Mapping[str, str] = field(default_factory=dict)
    fraction: float = 0.0
    kinds: Tuple[str, ...] = CHAOS_KINDS
    salt: str = "chaos"
    hang_s: float = 3600.0

    def __post_init__(self) -> None:
        for fingerprint, kind in self.faults.items():
            if kind not in CHAOS_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r} for {fingerprint!r}; "
                    f"expected one of {CHAOS_KINDS}"
                )
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        if not self.kinds:
            raise ValueError("kinds must not be empty")
        for kind in self.kinds:
            if kind not in CHAOS_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}; expected one of {CHAOS_KINDS}")
        if self.hang_s <= 0:
            raise ValueError("hang_s must be positive")

    def fault_for(self, fingerprint: str) -> Optional[str]:
        """The fault to inject for ``fingerprint``, or ``None`` (healthy)."""
        explicit = self.faults.get(fingerprint)
        if explicit is not None:
            return explicit
        if self.fraction <= 0.0:
            return None
        digest = hashlib.blake2b(
            f"{self.salt}:{fingerprint}".encode("utf-8"), digest_size=8
        ).digest()
        value = int.from_bytes(digest, "big")
        if value % _FRACTION_SCALE >= self.fraction * _FRACTION_SCALE:
            return None
        return self.kinds[(value // _FRACTION_SCALE) % len(self.kinds)]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "faults": {key: self.faults[key] for key in sorted(self.faults)},
            "fraction": self.fraction,
            "kinds": list(self.kinds),
            "salt": self.salt,
            "hang_s": self.hang_s,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ChaosPlan":
        return cls(
            faults=dict(payload.get("faults", {})),
            fraction=float(payload.get("fraction", 0.0)),
            kinds=tuple(payload.get("kinds", CHAOS_KINDS)),
            salt=str(payload.get("salt", "chaos")),
            hang_s=float(payload.get("hang_s", 3600.0)),
        )


_installed_plan: Optional[ChaosPlan] = None
_env_cache: Tuple[Optional[str], Optional[ChaosPlan]] = (None, None)


def install_chaos(plan: ChaosPlan) -> None:
    """Install ``plan`` process-globally and export it to subprocesses."""
    global _installed_plan
    _installed_plan = plan
    os.environ[CHAOS_ENV_VAR] = json.dumps(plan.to_dict(), sort_keys=True)


def clear_chaos() -> None:
    """Remove any installed plan (including the environment mirror)."""
    global _installed_plan
    _installed_plan = None
    os.environ.pop(CHAOS_ENV_VAR, None)


def active_plan() -> Optional[ChaosPlan]:
    """The plan evaluations should apply right now, if any.

    An installed plan wins; otherwise ``REPRO_CHAOS`` is parsed (and the
    parse memoised on the raw string, so the per-evaluation cost of an
    inherited plan is one dict lookup).  A malformed environment value is
    ignored rather than poisoning every evaluation with a parse error.
    """
    global _env_cache
    if _installed_plan is not None:
        return _installed_plan
    raw = os.environ.get(CHAOS_ENV_VAR)
    if raw is None:
        return None
    cached_raw, cached_plan = _env_cache
    if raw == cached_raw:
        return cached_plan
    try:
        plan: Optional[ChaosPlan] = ChaosPlan.from_dict(json.loads(raw))
    except (ValueError, TypeError, AttributeError):
        plan = None
    _env_cache = (raw, plan)
    return plan


@contextlib.contextmanager
def chaos_injection(plan: ChaosPlan) -> Iterator[ChaosPlan]:
    """Scoped :func:`install_chaos` for tests; restores the previous state."""
    global _installed_plan
    previous_plan = _installed_plan
    previous_env = os.environ.get(CHAOS_ENV_VAR)
    install_chaos(plan)
    try:
        yield plan
    finally:
        _installed_plan = previous_plan
        if previous_env is None:
            os.environ.pop(CHAOS_ENV_VAR, None)
        else:
            os.environ[CHAOS_ENV_VAR] = previous_env
