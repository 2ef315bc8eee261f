"""Durable campaign journal: append-only event log with replay and merge.

Campaign progress is recorded as an append-only JSONL event log (one record
per scenario lease, generation checkpoint, behavior-map delta, corpus insert
and scenario completion).  Every record carries a schema version, a monotonic
sequence number and a content checksum, so a reader can detect a torn final
record after a crash, replay the surviving prefix into a consistent view, and
union logs written by several machines into one deduplicated journal.
"""

from .events import (
    EVENT_TYPES,
    JOURNAL_SCHEMA,
    JournalCorruption,
    JournalError,
    JournalRecord,
    canonical_json,
)
from .log import CampaignJournal, merge_journals, merge_records
from .view import FleetJournalError, JournalView, replay_records

__all__ = [
    "EVENT_TYPES",
    "JOURNAL_SCHEMA",
    "CampaignJournal",
    "FleetJournalError",
    "JournalCorruption",
    "JournalError",
    "JournalRecord",
    "JournalView",
    "canonical_json",
    "merge_journals",
    "merge_records",
    "replay_records",
]
