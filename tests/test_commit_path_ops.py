"""The commit path costs what changed: counted ops, no clock.

Two writes happen on every generation checkpoint / corpus insert and used to
cost O(total state): ``BehaviorArchive.delta_since`` serialised and hashed
every cell to find the changed ones, and ``CorpusStore.add`` re-encoded every
row of ``index.json``.  Both now write a registry counter where the work
happens — ``archive.delta_cells_serialised`` and ``corpus.index_rows_encoded``
— and these tests pin them to the work done since the last commit, whatever
the size of the archive or the corpus.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.campaign import CampaignRunner, CampaignSpec, CorpusStore
from repro.campaign.corpus import CORPUS_SCHEMA
from repro.coverage.archive import ARCHIVE_FILENAME, BehaviorArchive
from repro.journal import CampaignJournal
from repro.obs.metrics import get_registry, set_enabled
from repro.traces import TrafficTrace

GENERATIONS = 3


def novelty_spec() -> CampaignSpec:
    return CampaignSpec.from_dict(
        {
            "name": "commit-path",
            "ccas": ["reno", "cubic"],
            "modes": ["traffic", "loss"],
            "objectives": ["throughput"],
            "conditions": [{"name": "base"}],
            "budget": {"population_size": 6, "generations": GENERATIONS, "duration": 0.3},
            "guidance": "novelty",
            "seed": 7,
            "seed_limit": 2,
        }
    )


class CountingArchive(BehaviorArchive):
    """Records, per ``delta_since`` call, (cells serialised, cells observed
    since the previous call, archive size)."""

    def __init__(self) -> None:
        super().__init__()
        self.observed = set()
        self.calls = []

    def observe(self, signature, *args, **kwargs):
        self.observed.add(signature.cell_key())
        return super().observe(signature, *args, **kwargs)

    def delta_since(self, mark):
        before = get_registry().counter("archive.delta_cells_serialised")
        result = super().delta_since(mark)
        serialised = get_registry().counter("archive.delta_cells_serialised") - before
        self.calls.append((int(serialised), len(self.observed), len(self)))
        self.observed = set()
        return result


def test_delta_since_serialises_the_cells_touched_since_the_mark(tmp_path):
    archive = CountingArchive()
    runner = CampaignRunner(
        novelty_spec(), CorpusStore(str(tmp_path)), archive=archive, register_attacks=False
    )
    runner.run()
    scenarios = novelty_spec().scenario_count
    assert len(archive.calls) == scenarios * GENERATIONS
    for serialised, observed, _ in archive.calls:
        assert serialised == observed
    # The point of the stamps: late checkpoints write a few cells of a big map.
    assert any(serialised < size for serialised, _, size in archive.calls)
    # The journaled deltas are those same cells, and they rebuild the map.
    deltas = CampaignJournal(CampaignJournal.corpus_path(str(tmp_path))).replay().behavior_deltas
    assert [len(data["cells"]) for data in deltas] == [call[0] for call in archive.calls]
    rebuilt = BehaviorArchive()
    for data in deltas:
        rebuilt.apply_delta(data["cells"], data["counters"])
    assert rebuilt.to_dict() == archive.to_dict()


def _rows_encoded() -> float:
    return get_registry().counter("corpus.index_rows_encoded")


def _trace(i: int) -> TrafficTrace:
    return TrafficTrace(timestamps=[0.001 * i, 0.5, 0.75], duration=1.0)


@pytest.mark.parametrize("size", [10, 200])
def test_an_insert_encodes_one_index_row_whatever_the_corpus_size(tmp_path, size):
    store = CorpusStore(str(tmp_path))
    for i in range(size):
        store.add(_trace(i), scenario_id="s", objective="throughput", score=float(i))
    for write in (
        lambda: store.add(_trace(size), scenario_id="s", score=1.0),                 # new
        lambda: store.add(_trace(3), scenario_id="s", objective="throughput", score=9e9),  # re-find
        lambda: store.annotate_triage(_trace(6).fingerprint(), {"class": "robust"}),
    ):
        before = _rows_encoded()
        write()
        assert _rows_encoded() - before == 1
    # The published file is the whole index, one row per line, and reopens.
    with open(os.path.join(str(tmp_path), "index.json"), "r", encoding="utf-8") as handle:
        text = handle.read()
    assert json.loads(text) == {"schema": CORPUS_SCHEMA, "entries": store.index_rows()}
    assert len(text.splitlines()) == len(store) + 5
    assert CorpusStore(str(tmp_path)).index_rows() == store.index_rows()


def test_an_index_in_the_indented_layout_still_opens(tmp_path):
    """``index.json`` as written before rows were cached (``indent=1``)."""
    store = CorpusStore(str(tmp_path))
    for i in range(3):
        store.add(_trace(i), scenario_id="s", score=float(i))
    rows = store.index_rows()
    with open(os.path.join(str(tmp_path), "index.json"), "w", encoding="utf-8") as handle:
        json.dump({"schema": CORPUS_SCHEMA, "entries": rows}, handle, indent=1, sort_keys=True)
    reopened = CorpusStore(str(tmp_path))
    assert reopened.index_rows() == rows
    assert reopened.add(_trace(9), scenario_id="s") is True
    assert set(CorpusStore(str(tmp_path)).index_rows()) == set(rows) | {_trace(9).fingerprint()}


def _campaign_files(corpus_dir) -> dict:
    files = {}
    for name in ("index.json", ARCHIVE_FILENAME):
        with open(os.path.join(str(corpus_dir), name), "rb") as handle:
            files[name] = handle.read()
    journal = CampaignJournal(CampaignJournal.corpus_path(str(corpus_dir)))
    files["behavior_deltas"] = journal.replay().behavior_deltas
    return files


def test_counters_are_observational(tmp_path):
    """Instrumentation off writes the same index, map and journaled deltas."""
    lit = CampaignRunner(
        novelty_spec(), CorpusStore(str(tmp_path / "lit")), register_attacks=False
    ).run()
    previous = set_enabled(False)
    try:
        dark = CampaignRunner(
            novelty_spec(), CorpusStore(str(tmp_path / "dark")),
            register_attacks=False, telemetry=False,
        ).run()
    finally:
        set_enabled(previous)
    assert lit.deterministic_digest() == dark.deterministic_digest()
    assert _campaign_files(tmp_path / "lit") == _campaign_files(tmp_path / "dark")
