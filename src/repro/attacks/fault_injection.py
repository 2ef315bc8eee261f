"""Surgical loss injection.

The BBR and CUBIC findings (paper sections 4.1 and 4.2) both start from the
same seed event: *one* data segment is lost, and its fast retransmission is
lost too, forcing the connection to wait out the (1-second minimum)
retransmission timeout.  The genetic search discovers cross-traffic and link
patterns that create this situation; for deterministic unit tests and the
Fig. 4c mechanism analysis, :class:`TargetedLoss` injects exactly that loss
pattern with no collateral damage.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Set, Tuple

from ..netsim.packet import Packet


class TargetedLoss:
    """Drop specific transmissions of specific segments of the CCA flow.

    Parameters
    ----------
    rules:
        Iterable of ``(seq, transmission_index)`` pairs; transmission index 1
        is the original transmission, 2 the first retransmission, and so on.

    Example
    -------
    Drop segment 500 and its first retransmission (the paper's P(0) event):

    >>> loss = TargetedLoss([(500, 1), (500, 2)])
    """

    def __init__(self, rules: Iterable[Tuple[int, int]]) -> None:
        self.rules: Set[Tuple[int, int]] = set(rules)
        self._seen: Dict[int, int] = defaultdict(int)
        self.dropped: list = []

    def __call__(self, packet: Packet, now: float) -> bool:
        self._seen[packet.seq] += 1
        key = (packet.seq, self._seen[packet.seq])
        if key in self.rules:
            self.dropped.append((packet.seq, self._seen[packet.seq], now))
            return True
        return False

    @property
    def drops_performed(self) -> int:
        return len(self.dropped)


def lose_segment_and_retransmission(seq: int) -> TargetedLoss:
    """The canonical seed event: segment ``seq`` is lost twice in a row."""
    return TargetedLoss([(seq, 1), (seq, 2)])
