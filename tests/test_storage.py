"""The corpus directory's storage rules, pinned where they are used.

One publish routine (file fsync -> ``os.replace`` -> parent-directory fsync,
no temp file left behind on failure), one parser per on-disk format under
two policies (a writer raises on what an observer reads as empty), and
read-only access that cannot touch a live directory.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign import CampaignRunner, CampaignSpec, CorpusReader, CorpusStore
from repro.campaign.corpus import read_corpus_index
from repro.cli import campaign_main, coverage_main, triage_main
from repro.coverage.archive import BehaviorArchive
from repro.exec.quarantine import QuarantineStore
from repro.journal.events import JournalCorruption
from repro.journal.log import CampaignJournal, merge_journals, read_journal_view
from repro.obs.manifest import write_manifest
from repro.storage import publish
from repro.traces.trace import TrafficTrace


def _trace(i: int = 0) -> TrafficTrace:
    return TrafficTrace(timestamps=[0.001 * i, 0.5, 0.75], duration=1.0)


def _journal_with_records(directory) -> CampaignJournal:
    journal = CampaignJournal(str(directory / "journal.jsonl"))
    journal.append("campaign_start", {"campaign": "c"})
    journal.append("scenario_complete", {"scenario_id": "s"})
    journal.close()
    return journal


# ---------------------------------------------------------------------- #
# Every publish: file fsync -> replace -> parent-directory fsync
# ---------------------------------------------------------------------- #


def _publish_corpus(directory):
    store = CorpusStore(str(directory))
    return lambda: (store.add(_trace(), scenario_id="s"), store.fold())


#: site -> (file published under the directory, set-up returning the action)
PUBLISH_SITES = {
    "corpus-index": ("index.json", _publish_corpus),
    "corpus-entry": (f"entries/{_trace().fingerprint()}.json", _publish_corpus),
    "quarantine.json": (
        "quarantine.json",
        lambda d: lambda store=CorpusStore(str(d)): store.fold(
            quarantine=QuarantineStore([{"fingerprint": "f", "cca": "c"}])
        ),
    ),
    "behavior_map.json": (
        "behavior_map.json",
        lambda d: lambda: BehaviorArchive().save(BehaviorArchive.corpus_path(str(d))),
    ),
    "run_manifest.json": ("run_manifest.json", lambda d: lambda: write_manifest({"a": 1}, d)),
    "compact": ("journal.jsonl", lambda d: _journal_with_records(d).compact),
    "merge_journals": (
        "merged.jsonl",
        lambda d: lambda j=_journal_with_records(d): merge_journals(
            [j.path], str(d / "merged.jsonl")
        ),
    ),
    # rotate renames bytes every append already fsynced: no file fsync needed.
    "rotate": ("journal-1.jsonl", lambda d: _journal_with_records(d).rotate),
}


@pytest.mark.parametrize("site", sorted(PUBLISH_SITES))
def test_every_publish_is_fsync_replace_dirfsync(tmp_path, monkeypatch, site):
    relative, setup = PUBLISH_SITES[site]
    action = setup(tmp_path)
    target = tmp_path / relative
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        return real_fsync(fd)

    def replace(src, dst, *args, **kwargs):
        events.append(("replace", os.fspath(dst)))
        return real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    action()
    monkeypatch.undo()

    renamed = events.index(("replace", str(target)))
    if site != "rotate":
        assert ("fsync", target.stat().st_ino) in events[:renamed], "file not fsynced before rename"
    assert ("fsync", target.parent.stat().st_ino) in events[renamed:], (
        "parent directory not fsynced after rename"
    )
    assert not [name for name in os.listdir(target.parent) if name.endswith(".tmp")]


def test_failed_publish_leaves_no_temp_file_and_the_old_bytes(tmp_path, monkeypatch):
    target = tmp_path / "x.json"
    publish(target, "old")

    def refuse(src, dst):
        raise OSError("disk says no")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="disk says no"):
        publish(target, "new")
    assert os.listdir(tmp_path) == ["x.json"]
    assert target.read_text() == "old"


# ---------------------------------------------------------------------- #
# Read-only access cannot touch a live directory
# ---------------------------------------------------------------------- #

TINY_SPEC = {
    "name": "tiny",
    "ccas": ["reno"],
    "modes": ["traffic"],
    "objectives": ["throughput"],
    "conditions": [{"name": "base"}],
    "budget": {"population_size": 4, "generations": 1, "duration": 0.3},
    "seed": 3,
}


def _snapshot(directory) -> dict:
    return {
        os.path.relpath(os.path.join(root, name), directory): open(
            os.path.join(root, name), "rb"
        ).read()
        for root, _, names in os.walk(directory)
        for name in names
    }


def test_readers_leave_a_live_corpus_directory_alone(tmp_path, capsys):
    """``report``, ``replay``, ``coverage gaps`` and ``repro-triage --corpus``
    hold a reader: another process's in-flight temp files survive them, and
    no byte of the directory changes."""
    corpus_dir = tmp_path / "corpus"
    CampaignRunner(
        CampaignSpec.from_dict(TINY_SPEC), CorpusStore(str(corpus_dir)), telemetry=False
    ).run()
    # Without a finalised map, ``coverage gaps`` reads the journal's cells.
    os.remove(corpus_dir / "behavior_map.json")
    for planted in ("index.json.tmp", "entries/abc.json.tmp", "journal.jsonl.tmp",
                    "behavior_map.json.tmp"):
        (corpus_dir / planted).write_text("in flight", encoding="utf-8")
    fingerprint = CorpusReader(str(corpus_dir)).fingerprints()[0]
    before = _snapshot(corpus_dir)

    assert campaign_main(["report", "--corpus", str(corpus_dir)]) == 0
    assert campaign_main(["replay", "--corpus", str(corpus_dir), "--cca", "reno"]) == 0
    assert coverage_main(["gaps", str(corpus_dir)]) == 0
    assert triage_main(["--corpus", str(corpus_dir), "--fingerprint", fingerprint,
                        "--skip-minimize", "--skip-robustness", "--skip-differential"]) == 0
    capsys.readouterr()

    assert _snapshot(corpus_dir) == before


# ---------------------------------------------------------------------- #
# One parser, two policies
# ---------------------------------------------------------------------- #


@settings(max_examples=40, deadline=None)
@given(
    payloads=st.lists(st.dictionaries(st.text(max_size=4), st.integers(), max_size=3),
                      min_size=1, max_size=6),
    cut=st.integers(0, 10_000),
    corrupt=st.integers(0, 10_000),
)
def test_journal_writer_and_observer_share_one_scan(tmp_path_factory, payloads, cut, corrupt):
    directory = tmp_path_factory.mktemp("journal")
    source = CampaignJournal(str(directory / "source.jsonl"), fsync=False)
    for index, payload in enumerate(payloads):
        source.append("scenario_complete", {"scenario_id": f"s{index}", **payload})
    source.close()
    blob = open(source.path, "rb").read()

    # Cut anywhere: only the final record can be damaged, so the writer's
    # strict replay and the observer's tolerant one agree exactly.
    path = str(directory / "cut.jsonl")
    with open(path, "wb") as handle:
        handle.write(blob[: cut % (len(blob) + 1)])
    strict, tolerant = CampaignJournal(path).replay(), read_journal_view(path)
    assert strict.to_snapshot() == tolerant.to_snapshot()
    assert strict.last_seq == tolerant.last_seq
    assert strict.torn_records == tolerant.torn_records

    # Corrupt one interior line: the writer refuses, the observer returns
    # every other record and counts the bad one.
    lines = blob.split(b"\n")[:-1]
    if len(lines) >= 2:
        victim = corrupt % (len(lines) - 1)
        lines[victim] = lines[victim][:-2] + b"!}"
        with open(path, "wb") as handle:
            handle.write(b"\n".join(lines) + b"\n")
        with pytest.raises(JournalCorruption):
            CampaignJournal(path).replay()
        salvaged = read_journal_view(path)
        assert salvaged.torn_records == 1
        assert set(salvaged.completed) == {
            f"s{index}" for index in range(len(lines)) if index != victim
        }


@pytest.mark.parametrize(
    "damage",
    [
        lambda text: json.dumps(dict(json.loads(text), schema=99)),
        lambda text: text[: len(text) // 2],
    ],
    ids=["schema-mismatch", "truncated"],
)
def test_unusable_index_reads_empty_and_refuses_to_open_for_writing(tmp_path, damage):
    store = CorpusStore(str(tmp_path))
    store.add(_trace(), scenario_id="s")
    store.fold()
    index_path = tmp_path / "index.json"
    index_path.write_text(damage(index_path.read_text()), encoding="utf-8")
    (tmp_path / "index.json.tmp").write_text("orphan", encoding="utf-8")
    before = _snapshot(tmp_path)

    assert read_corpus_index(str(tmp_path)) == {}
    assert len(CorpusReader(str(tmp_path))) == 0
    with pytest.raises(ValueError, match="refusing to open"):
        CorpusStore(str(tmp_path))
    assert _snapshot(tmp_path) == before       # not even the orphan sweep ran
