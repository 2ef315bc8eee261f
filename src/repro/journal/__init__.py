"""Durable campaign journal: append-only event log with replay and merge.

Campaign progress is recorded as an append-only JSONL event log (one record
per scenario lease, generation checkpoint, behavior-map delta, corpus insert
and scenario completion).  Every record carries a schema version, a monotonic
sequence number and a content checksum, so a reader can detect a torn final
record after a crash, replay the surviving prefix into a consistent view, and
union logs written by several machines into one deduplicated journal.

:class:`~repro.journal.log.CampaignJournal` is also served from this package
(``from repro.journal import CampaignJournal``), the one name it re-exports.
"""

from .log import CampaignJournal

__all__ = ["CampaignJournal"]
