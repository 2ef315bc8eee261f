"""Behavior-coverage-guided fuzzing.

This subsystem turns every simulation the fuzzer already runs into *search
signal about behavioral diversity*:

* :mod:`signature` — extract a deterministic :class:`BehaviorSignature`
  (state-machine transition multiset, quantized egress-rate shape, episode
  buckets, stall class, goodput bucket) from each simulation's streaming
  counters;
* :mod:`archive` — a MAP-Elites :class:`BehaviorArchive` mapping descriptor
  cells to the best trace seen in each behavioral regime, serializable
  into a campaign corpus directory;
* :mod:`guidance` — pluggable ``score``/``novelty``/``elites`` strategies
  that blend archive rarity into GA selection and immigrate traces from
  under-covered cells.
"""

from .archive import (
    ARCHIVE_FILENAME,
    ARCHIVE_SCHEMA,
    BehaviorArchive,
    CellElite,
    diff_archives,
)
from .guidance import (
    GUIDANCE_MODES,
    ElitesGuidance,
    NoveltyGuidance,
    SearchGuidance,
    make_guidance,
)
from .signature import (
    GOODPUT_BUCKETS,
    SIGNATURE_SCHEMA,
    STALL_CLASSES,
    BehaviorSignature,
    count_bucket,
    extract_signature,
    signature_from_summary,
    stall_class,
)

__all__ = [
    "ARCHIVE_FILENAME",
    "ARCHIVE_SCHEMA",
    "BehaviorArchive",
    "BehaviorSignature",
    "CellElite",
    "ElitesGuidance",
    "GOODPUT_BUCKETS",
    "GUIDANCE_MODES",
    "NoveltyGuidance",
    "STALL_CLASSES",
    "SIGNATURE_SCHEMA",
    "SearchGuidance",
    "count_bucket",
    "diff_archives",
    "extract_signature",
    "make_guidance",
    "signature_from_summary",
    "stall_class",
]
