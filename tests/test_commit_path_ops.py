"""The commit path costs what changed: counted ops, no clock.

Two writes used to cost O(total state) on every generation checkpoint or
corpus insert: ``BehaviorArchive.delta_since`` serialised and hashed every
cell to find the changed ones, and every ``CorpusStore.add`` republished the
whole ``index.json``.  The archive now counts the cells it serialises
(``archive.delta_cells_serialised``), pinned here to the cells touched since
the last delta; a corpus insert publishes nothing, and one fold publishes
each changed entry file and ``index.json`` once.
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


def _trace(i: int) -> TrafficTrace:
    return TrafficTrace(timestamps=[0.001 * i, 0.5, 0.75], duration=1.0)


@pytest.mark.parametrize("size", [10, 200])
def test_inserts_publish_nothing_until_one_fold_publishes_each_file_once(
    tmp_path, monkeypatch, size
):
    store = CorpusStore(str(tmp_path))
    replaced = []
    real_replace = os.replace

    def replace(src, dst):
        replaced.append(os.path.relpath(dst, str(tmp_path)))
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    for i in range(size):
        store.add(_trace(i), scenario_id="s", objective="throughput", score=float(i))
    store.add(_trace(3), scenario_id="s", objective="throughput", score=9e9)    # re-find
    store.annotate_triage(_trace(6).fingerprint(), {"class": "robust"})
    assert replaced == []
    store.fold()
    assert sorted(replaced) == sorted(
        ["index.json"] + [f"entries/{fp}.json" for fp in store.fingerprints()]
    )
    store.fold()                                   # nothing new: nothing published
    assert len(replaced) == size + 1
    with open(os.path.join(str(tmp_path), "index.json"), "r", encoding="utf-8") as handle:
        assert json.load(handle) == {"schema": CORPUS_SCHEMA, "entries": store.index_rows()}
    assert CorpusStore(str(tmp_path)).index_rows() == store.index_rows()


def test_an_index_in_the_indented_layout_still_opens(tmp_path):
    """``index.json`` as written by older versions (``indent=1``)."""
    store = CorpusStore(str(tmp_path))
    for i in range(3):
        store.add(_trace(i), scenario_id="s", score=float(i))
    rows = store.index_rows()
    with open(os.path.join(str(tmp_path), "index.json"), "w", encoding="utf-8") as handle:
        json.dump({"schema": CORPUS_SCHEMA, "entries": rows}, handle, indent=1, sort_keys=True)
    reopened = CorpusStore(str(tmp_path))
    assert reopened.index_rows() == rows
    assert reopened.add(_trace(9), scenario_id="s") is True
    reopened.fold()
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
