"""Journal reads cost what was appended: counted ops, no clock.

Every reader of the journal goes through one :class:`JournalCursor`, and the
one parser it feeds counts what enters it — ``journal.scans`` and
``journal.bytes_scanned`` — so these tests pin the read cost of the four ways
a journal is used to the bytes each had not yet seen: a resume, a dashboard
poll, and a fresh campaign (which reads nothing).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.campaign import CampaignRunner, CampaignSpec, CorpusStore
from repro.journal.log import CampaignJournal
from repro.obs.metrics import get_registry, set_enabled
from repro.serve.query import DashboardQuery


def matrix_spec(**overrides) -> CampaignSpec:
    """18 scenarios under novelty guidance: ``wide_matrix``'s shape, tiny."""
    payload = {
        "name": "read-ops",
        "ccas": ["reno", "cubic", "bbr"],
        "modes": ["traffic", "link", "loss"],
        "objectives": ["throughput"],
        "conditions": [{"name": "base"}, {"name": "shallow", "queue_capacity": 20}],
        "budget": {"population_size": 4, "generations": 2, "duration": 0.2},
        "guidance": "novelty",
        "seed": 7,
    }
    payload.update(overrides)
    return CampaignSpec.from_dict(payload)


def small_spec() -> CampaignSpec:
    return matrix_spec(
        name="read-ops-small", ccas=["reno", "cubic"], modes=["traffic"],
        conditions=[{"name": "base"}], seed_limit=2,
    )


class Scanned:
    """``journal.scans`` / ``journal.bytes_scanned`` since construction."""

    def __init__(self) -> None:
        self._start = self._now()

    @staticmethod
    def _now() -> "tuple[float, float]":
        registry = get_registry()
        return registry.counter("journal.scans"), registry.counter("journal.bytes_scanned")

    @property
    def scans(self) -> int:
        return int(self._now()[0] - self._start[0])

    @property
    def bytes(self) -> int:
        return int(self._now()[1] - self._start[1])


def _journal_size(corpus_dir) -> int:
    return os.path.getsize(CampaignJournal.corpus_path(str(corpus_dir)))


class Interrupted(Exception):
    pass


class DyingJournal(CampaignJournal):
    """Raises out of the campaign right after its Nth generation checkpoint."""

    checkpoints_left = 3

    def append(self, type, data):
        record = super().append(type, data)
        if type == "generation_checkpoint":
            self.checkpoints_left -= 1
            if self.checkpoints_left == 0:
                raise Interrupted
        return record


def test_resume_parses_the_interrupted_journal_once(tmp_path):
    spec = small_spec()
    control = CampaignRunner(spec, CorpusStore(str(tmp_path / "control")), telemetry=False).run()
    corpus_dir = str(tmp_path / "corpus")
    journal = DyingJournal(CampaignJournal.corpus_path(corpus_dir))
    with pytest.raises(Interrupted):
        CampaignRunner(spec, CorpusStore(corpus_dir), journal=journal, telemetry=False).run()
    left_behind = _journal_size(corpus_dir)
    scanned = Scanned()
    resumed = CampaignRunner.resume(corpus_dir, telemetry=False).run()
    # replay() for the view, then the repair-before-append and every later
    # append continue from the same cursor: one pass over what was there,
    # none over what the resumed run itself writes.
    assert (scanned.scans, scanned.bytes) == (1, left_behind)
    assert _journal_size(corpus_dir) > left_behind
    assert resumed.deterministic_digest() == control.deterministic_digest()


def test_a_dashboard_poll_parses_only_what_was_appended(tmp_path):
    CampaignRunner(small_spec(), CorpusStore(str(tmp_path)), telemetry=False).run()
    query = DashboardQuery(str(tmp_path))
    scanned = Scanned()
    first = query.coverage(), query.rankings()
    assert (scanned.scans, scanned.bytes) == (1, _journal_size(tmp_path))

    # A live campaign appends k records; the next poll parses those alone.
    writer = CampaignJournal(CampaignJournal.corpus_path(str(tmp_path)))
    appended = [
        writer.append(
            "behavior_delta",
            {"scenario_id": "late", "generation": i, "cells": {f"late-{i}": {"hits": 1}}, "counters": None},
        )
        for i in range(3)
    ]
    writer.close()
    scanned = Scanned()  # the writer parsed the file too, to find its tail
    second = query.coverage(), query.rankings()
    assert (scanned.scans, scanned.bytes) == (1, sum(len(r.to_line()) for r in appended))
    assert second[0]["sources"]["journal_cells"] == first[0]["sources"]["journal_cells"] + 3
    assert second[1] == first[1]
    # ... and a poll with nothing new parses nothing.
    scanned = Scanned()
    assert (query.coverage(), query.rankings()) == second
    assert (scanned.scans, scanned.bytes) == (0, 0)
    query.close()


class WatchedJournal(CampaignJournal):
    """Notes, after each append, how far its cursor has read and folded."""

    def __init__(self, path: str) -> None:
        super().__init__(path)
        self.folded_through = set()

    def append(self, type, data):
        record = super().append(type, data)
        self.folded_through.add(self._cursor.offset)
        return record


def _journal_content(corpus_dir) -> list:
    """Every record, minus the one field that is a wall-clock reading."""
    content = []
    for record in CampaignJournal(CampaignJournal.corpus_path(str(corpus_dir))).records():
        data = json.loads(json.dumps(record.data))
        data.get("outcome", {}).pop("wall_time_s", None)
        content.append((record.seq, record.type, data))
    return content


def test_a_serial_campaign_reads_nothing_and_folds_nothing(tmp_path):
    lit_dir, dark_dir = str(tmp_path / "lit"), str(tmp_path / "dark")
    journal = WatchedJournal(CampaignJournal.corpus_path(lit_dir))
    scanned = Scanned()
    lit = CampaignRunner(small_spec(), CorpusStore(lit_dir), journal=journal, telemetry=False).run()
    assert (scanned.scans, scanned.bytes) == (0, 0)
    # Nobody asked for a view, so no own append was folded or read back.
    assert journal.folded_through == {0}

    previous = set_enabled(False)
    try:
        dark = CampaignRunner(small_spec(), CorpusStore(dark_dir), telemetry=False).run()
    finally:
        set_enabled(previous)
    assert lit.deterministic_digest() == dark.deterministic_digest()
    assert _journal_content(lit_dir) == _journal_content(dark_dir)
