"""The corpus is a fold of the journal.

A campaign writes its inserts only as journal records and publishes each
changed entry file, ``index.json``, ``behavior_map.json`` and
``folded.json`` once, at its fold.
Every reader sees the files plus the journal's inserts they lack, so a
killed campaign's corpus reads as it would once folded, and a finished one
is read without opening the journal.
"""

from __future__ import annotations

import builtins
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

import pytest

from repro.attacks import builtin_attack_traces
from repro.campaign import CampaignRunner, CampaignSpec, CorpusReader, CorpusStore
from repro.campaign.corpus import read_corpus_index
from repro.cli import campaign_main
from repro.journal import CampaignJournal
from repro.serve.query import DashboardQuery

CRASHSIM = os.path.join(os.path.dirname(__file__), "crashsim.py")

SPEC = {
    "name": "fold",
    "ccas": ["reno"],
    "modes": ["traffic"],
    "objectives": ["throughput"],
    "conditions": [{"name": "base"}],
    "budget": {"population_size": 4, "generations": 2, "duration": 0.3},
    "seed": 5,
    "seed_limit": 2,
}
N_BUILTINS = len(builtin_attack_traces(SPEC["budget"]["duration"]))

#: Digest of what the reads below return on the corpus ``post-checkpoint
#: --nth 2`` leaves, taken from the code that published every insert at once
#: (files only, no fold).  Their corpora must read the same; re-pin only
#: with a change that moves the search itself.
PINNED_POST_CHECKPOINT_READS = "f1142e8ef3efb046740b1c2c75c03d63"


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("spec") / "spec.json"
    path.write_text(json.dumps(SPEC), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    corpus_dir = str(tmp_path_factory.mktemp("finished") / "corpus")
    CampaignRunner(CampaignSpec.from_dict(SPEC), CorpusStore(corpus_dir)).run()
    return corpus_dir


def _reads(corpus_dir: str, capsys) -> dict:
    """``report``, ``status --json``, ``/api/corpus``, every
    ``/api/corpus/<fp>`` and ``seeds_for``, with the directory's path taken out."""

    def cli(*argv: str):
        try:
            code = campaign_main(list(argv))
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().out.replace(corpus_dir, "D")

    status = cli("status", corpus_dir, "--json")
    if status[0] == 0:                 # less what a running campaign's clock moves
        clockless = json.loads(status[1])
        for key in ("elapsed_s", "eta_s", "evals_per_sec"):
            clockless.pop(key, None)
        status = (0, clockless)

    query = DashboardQuery(corpus_dir)
    try:
        index = query.corpus_index()
        entries = {row["fingerprint"]: query.corpus_entry(row["fingerprint"])
                   for row in index["rows"]}
    finally:
        query.close()
    seeds = CorpusReader(corpus_dir).seeds_for(
        "traffic", SPEC["budget"]["duration"], 10, objective="throughput"
    )
    return {
        "report": cli("report", "--corpus", corpus_dir),
        "status": status,
        "api_corpus": dict(index, corpus_dir="D"),
        "api_entries": entries,
        "seeds": [(trace.fingerprint(), trace.timestamps) for trace in seeds],
    }


def _digest(reads: dict) -> str:
    """The reads without their clocks: no status, no report's last-campaign line."""
    code, report = reads["report"]
    kept = dict(reads, report=[code, report.split("\nlast campaign:")[0]])
    del kept["status"]
    canonical = json.dumps(kept, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


def _killed(corpus_dir: str, spec_file: str, point: str, nth: int) -> None:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(CRASHSIM), "..", "src"))
    proc = subprocess.run(
        [sys.executable, CRASHSIM, "--corpus", corpus_dir, "--spec", spec_file,
         "--point", point, "--nth", str(nth)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr


def test_a_serial_campaign_publishes_each_corpus_file_once_at_its_fold(tmp_path, monkeypatch):
    corpus_dir = str(tmp_path / "corpus")
    events = []
    real_replace, real_append = os.replace, CampaignJournal.append

    def replace(src, dst, *args, **kwargs):
        events.append(os.path.relpath(os.fspath(dst), corpus_dir))
        return real_replace(src, dst, *args, **kwargs)

    def append(self, type, data):
        events.append(f"journal:{type}")
        return real_append(self, type, data)

    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(CampaignJournal, "append", append)
    runner = CampaignRunner(CampaignSpec.from_dict(SPEC), CorpusStore(corpus_dir))
    runner.run()
    monkeypatch.undo()

    corpus_files = ["index.json", "behavior_map.json", "folded.json"] + [
        f"entries/{fingerprint}.json" for fingerprint in runner.corpus.fingerprints()
    ]
    published = [event for event in events if event in corpus_files]
    assert sorted(published) == sorted(corpus_files)        # each file, once
    first = events.index(published[0])
    assert not [event for event in events[first:] if event.startswith("journal:")]
    assert published[-3:] == ["index.json", "behavior_map.json", "folded.json"]


def test_a_fold_that_raises_still_closes_the_journal(tmp_path, monkeypatch):
    real_fold = CorpusStore.fold

    def full_disk(self, **kwargs):
        if "mark" not in kwargs:        # the fold before the journal rotates
            return real_fold(self, **kwargs)
        raise OSError(28, "No space left on device")

    runner = CampaignRunner(
        CampaignSpec.from_dict(SPEC), CorpusStore(str(tmp_path / "corpus")), telemetry=False
    )
    monkeypatch.setattr(CorpusStore, "fold", full_disk)
    with pytest.raises(OSError, match="No space left"):
        runner.run()
    journal = runner._journal
    assert journal._handle is None
    assert journal._cursor._handle is None


def test_a_finished_corpus_is_read_without_opening_its_journal(
    finished, tmp_path, monkeypatch, capsys
):
    finished = shutil.copytree(finished, str(tmp_path / "corpus"))     # its journal is touched
    opened = []
    real_open = builtins.open

    def spy(file, *args, **kwargs):
        opened.append(os.fspath(file) if isinstance(file, (str, os.PathLike)) else file)
        return real_open(file, *args, **kwargs)

    journal = CampaignJournal.corpus_path(finished)
    monkeypatch.setattr(builtins, "open", spy)
    folded = _reads(finished, capsys)
    rows = read_corpus_index(finished)
    reports = [opened.count(journal)]         # only ``report``'s last-campaign line reads it
    del opened[:]
    # A journal changed since the fold is read again, and still adds nothing.
    status = os.stat(journal)
    os.utime(journal, ns=(status.st_atime_ns, status.st_mtime_ns + 1))
    assert read_corpus_index(finished) == rows
    monkeypatch.undo()

    assert reports == [1]
    assert journal in opened
    assert len(rows) == len(folded["api_corpus"]["rows"]) > 0


@pytest.fixture(scope="module")
def entry_files(finished):
    return len(os.listdir(os.path.join(finished, "entries")))


def _slow(point, nth):
    return pytest.param(point, nth, id=f"{point}-{nth}", marks=pytest.mark.slow)


@pytest.mark.parametrize(
    "point,nth",
    [
        _slow("post-append", 1),                    # during builtin registration
        _slow("post-append", N_BUILTINS + 1),       # the first harvest insert
        pytest.param("post-checkpoint", 2, id="post-checkpoint-2"),     # mid-scenario
        _slow("pre-rename", 1),                     # the fold's first entry file
        _slow("pre-rename", "index"),               # the fold's index.json
        _slow("pre-rename", "map"),                 # the fold's behavior_map.json
        _slow("pre-rename", "mark"),                # the fold's folded.json
    ],
)
def test_a_killed_campaign_reads_as_its_folded_corpus(
    tmp_path, spec_file, entry_files, capsys, point, nth
):
    killed, folded = str(tmp_path / "killed"), str(tmp_path / "folded")
    nth = {"index": entry_files + 1, "map": entry_files + 2, "mark": entry_files + 3}.get(nth, nth)
    _killed(killed, spec_file, point, nth)
    shutil.copytree(killed, folded)
    CorpusStore(folded).fold()
    reads = _reads(killed, capsys)
    assert reads == _reads(folded, capsys)
    if point == "post-checkpoint":
        assert _digest(reads) == PINNED_POST_CHECKPOINT_READS


def test_a_refind_killed_before_its_index_reads_and_resumes_as_uninterrupted(
    tmp_path, finished, spec_file, monkeypatch, capsys
):
    """A second campaign over a finished corpus re-finds its entries and is
    killed after the fold renamed their entry files but not ``index.json``:
    each file is then one rediscovery ahead of its row, and neither the reads
    nor the resume may count that rediscovery twice."""
    control, killed = str(tmp_path / "control"), str(tmp_path / "killed")
    shutil.copytree(finished, control)
    shutil.copytree(finished, killed)
    published, real_replace = [], os.replace

    def replace(src, dst, *args, **kwargs):
        if os.fspath(dst).endswith(".json"):           # what crashsim's pre-rename counts
            published.append(os.path.relpath(os.fspath(dst), control))
        return real_replace(src, dst, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", replace)
        CampaignRunner(CampaignSpec.from_dict(SPEC), CorpusStore(control)).run()
    nth = len(published) - published[::-1].index("index.json")     # the final fold's
    rows = read_corpus_index(control)
    refound = [path for path in published[:nth] if path.startswith("entries/")]
    assert any(rows[path[8:-5]]["rediscoveries"] == 1 for path in refound)

    _killed(killed, spec_file, "pre-rename", nth)
    assert _digest(_reads(killed, capsys)) == _digest(_reads(control, capsys))
    CampaignRunner.resume(killed).run()
    for name in ["index.json"] + [f"entries/{name}" for name in os.listdir(f"{control}/entries")]:
        with open(os.path.join(killed, name), "rb") as mine, \
                open(os.path.join(control, name), "rb") as theirs:
            assert mine.read() == theirs.read(), name


def test_a_dashboard_reads_the_corpus_again_once_it_changes(tmp_path):
    from repro.traces import TrafficTrace

    corpus_dir = str(tmp_path / "corpus")
    first, second = (TrafficTrace(timestamps=[t], duration=1.0) for t in (0.1, 0.2))
    store = CorpusStore(corpus_dir)
    store.add(first, scenario_id="s")
    store.fold()
    query = DashboardQuery(corpus_dir)
    assert [row["fingerprint"] for row in query.corpus_index()["rows"]] == [first.fingerprint()]
    # A journaled insert the files lack yet, then the fold that publishes it.
    CampaignJournal(CampaignJournal.corpus_path(corpus_dir)).append("corpus_insert", {
        "scenario_id": "s", "fingerprint": second.fingerprint(), "new": True,
        "rediscoveries_after": None, "entry": {"scenario_id": "s", "trace": second.to_dict()},
    })
    both = sorted([first.fingerprint(), second.fingerprint()])
    for fold in (False, True):
        if fold:
            CorpusStore(corpus_dir).fold()
        assert [row["fingerprint"] for row in query.corpus_index()["rows"]] == both
        assert query.corpus_entry(second.fingerprint())["trace"] == second.to_dict()
    assert os.path.exists(os.path.join(corpus_dir, "folded.json"))
    query.close()


def test_rediscovery_of_missing_corpus_entry_degrades_to_new(tmp_path):
    """Bugfix: replaying a rediscovery insert whose corpus entry is missing
    (pruned dir, partial copy, cross-machine merge) used to crash resume;
    it now applies the insert as new and counts a repair."""
    from repro.traces import TrafficTrace

    corpus = CorpusStore(str(tmp_path / "corpus"))
    trace = TrafficTrace(timestamps=[0.1, 0.2], duration=1.0)
    data = {
        "scenario_id": "reno/traffic/throughput/base",
        "fingerprint": trace.fingerprint(),
        "new": False,
        "rediscoveries_after": 3,
        "entry": {"scenario_id": "reno/traffic/throughput/base", "cca": "reno",
                  "trace": trace.to_dict()},
    }
    corpus.apply(data)
    assert corpus.repairs == 1
    assert trace.fingerprint() in corpus
    # Once repaired, replaying the same event again is a plain no-op path.
    corpus.apply(data)
    assert corpus.repairs == 1


def test_a_campaign_that_raises_after_its_matrix_marks_no_fold(tmp_path, monkeypatch):
    """A campaign that raised after its last ``scenario_complete`` folds its
    files unmarked, so readers still apply the journal, and a resume
    finishes it as the uninterrupted run."""
    spec = CampaignSpec.from_dict(SPEC)
    control_dir, corpus_dir = str(tmp_path / "control"), str(tmp_path / "corpus")
    control = CampaignRunner(spec, CorpusStore(control_dir), telemetry=False).run()
    run_matrix = CampaignRunner._run_matrix

    def interrupted(self, view):
        run_matrix(self, view)
        raise RuntimeError("interrupted")

    with monkeypatch.context() as patch:
        patch.setattr(CampaignRunner, "_run_matrix", interrupted)
        with pytest.raises(RuntimeError, match="interrupted"):
            CampaignRunner(spec, CorpusStore(corpus_dir), telemetry=False).run()
    assert not os.path.exists(os.path.join(corpus_dir, "folded.json"))
    assert CorpusReader(corpus_dir).fingerprints() == CorpusReader(control_dir).fingerprints()
    resumed = CampaignRunner.resume(corpus_dir, telemetry=False).run()
    assert resumed.deterministic_digest() == control.deterministic_digest()
