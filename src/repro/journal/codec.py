"""Trace references: every trace is journaled once per file.

A trace is named by :func:`trace_digest` of its whole serialised dict.
:func:`deflate` (at append and compaction) puts digests at the
:data:`TRACE_PATHS` of a payload and returns the traces the file does not
hold yet: the record's ``traces`` table.  :func:`inflate` (in the fold) puts
the dicts back, so every reader sees exactly the payload that was appended;
the dicts are shared between records and read-only.  A digest no table holds
inflates to ``None``: that cell or corpus entry has no trace, and a
checkpoint with such an individual restarts its scenario from its seeds.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Collection, Dict, List, Tuple

from .events import canonical_json

#: Record type -> the key paths of its traces (``*``: every list item or dict
#: value); a compaction snapshot mirrors the other three under its view.
TRACE_PATHS: Dict[str, Tuple[Tuple[str, ...], ...]] = {
    "generation_checkpoint": (("fuzzer", "islands", "*", "*", "trace"),),
    "behavior_delta": (("cells", "*", "trace"),),
    "corpus_insert": (("entry", "trace"),),
    "compaction_snapshot": (
        ("view", "checkpoints", "*", "fuzzer", "islands", "*", "*", "trace"),
        ("view", "behavior_deltas", "*", "cells", "*", "trace"),
        ("view", "inserts", "*", "entry", "trace"),
    ),
}


def trace_digest(trace: Dict[str, Any]) -> str:
    """Content address of one serialised trace: type, duration, the constant
    ``mss_bytes``, metadata and ``max_packets`` as canonical JSON, then the
    timestamps as the packed string they already are (never re-encoded) —
    the dict whole, so inflating gives back exactly what was journaled."""
    packed = trace.get("timestamps_f64le")
    if isinstance(packed, str):
        rest = {name: value for name, value in trace.items() if name != "timestamps_f64le"}
    else:  # the list form of older journals: all of it is canonical JSON
        packed, rest = "", trace
    text = f"{canonical_json(rest)}\n{packed}"
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def _rewrite(node: Any, path: Tuple[str, ...], swap: Callable[[Any], Any]) -> Any:
    """``node`` with ``swap`` applied at ``path``; containers on the way are
    copied, never changed in place."""
    if not path:
        return swap(node)
    key, rest = path[0], path[1:]
    if key == "*":
        if isinstance(node, list):
            return [_rewrite(item, rest, swap) for item in node]
        if isinstance(node, dict):
            return {name: _rewrite(value, rest, swap) for name, value in node.items()}
    elif isinstance(node, dict) and key in node:
        return {**node, key: _rewrite(node[key], rest, swap)}
    return node


def deflate(
    type: str, data: Dict[str, Any], known: Collection[str]
) -> Tuple[Dict[str, Any], Dict[str, Dict[str, Any]], int]:
    """``(data with digests for traces, table, digests named)``.  The table
    holds each named trace whose digest is not in ``known``."""
    table: Dict[str, Dict[str, Any]] = {}
    named = 0

    def swap(trace: Any) -> Any:
        nonlocal named
        if not isinstance(trace, dict):
            return trace
        named += 1
        digest = trace_digest(trace)
        if digest not in known:
            table[digest] = trace
        return digest

    for path in TRACE_PATHS.get(type, ()):
        data = _rewrite(data, path, swap)
    return data, table, named


def inflate(type: str, data: Dict[str, Any], traces: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """``data`` with each digest replaced by its trace from ``traces``
    (``None`` when no table held it); inline traces pass through."""

    def swap(trace: Any) -> Any:
        return traces.get(trace) if isinstance(trace, str) else trace

    for path in TRACE_PATHS.get(type, ()):
        data = _rewrite(data, path, swap)
    return data


def named_digests(type: str, data: Dict[str, Any]) -> List[str]:
    """The digests a stored payload names, in path order, repeats included."""
    names: List[str] = []
    for path in TRACE_PATHS.get(type, ()):
        _rewrite(data, path, lambda trace: names.append(trace) if isinstance(trace, str) else None)
    return names
