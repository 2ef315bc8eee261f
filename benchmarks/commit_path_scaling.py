"""What one commit costs as the campaign's state grows (CPU time, this process).

Two writes sit on the per-insert / per-generation commit path:

* ``CorpusStore.add`` — an insert in memory (``CorpusStore.fold`` publishes
  the entry file and ``index.json`` once, when the campaign ends) — timed per
  insert into a corpus that already holds N entries, and
* ``BehaviorArchive.delta_since`` — the cells a ``behavior_delta`` record
  carries — timed per call with 4 cells touched since the mark, out of N.

Both should stay flat in N: an insert publishes nothing and a delta
serialises the touched cells (``tests/test_commit_path_ops.py`` asserts both
by counted operations; this script only reports times).

    PYTHONPATH=src python benchmarks/commit_path_scaling.py
"""

from __future__ import annotations

import tempfile
import time

from repro.campaign import CorpusStore
from repro.coverage import BehaviorArchive, BehaviorSignature
from repro.traces import TrafficTrace

PACKETS = 200          #: timestamps per trace, about a campaign elite's size
REPEATS = 50
TOUCHED = 4


def _trace(i: int) -> TrafficTrace:
    return TrafficTrace(
        timestamps=[(0.001 * i + 0.005 * k) % 1.0 for k in range(PACKETS)], duration=1.0
    )


def add_ms(entries: int) -> float:
    with tempfile.TemporaryDirectory() as corpus_dir:
        store = CorpusStore(corpus_dir)
        for i in range(entries):
            store.add(_trace(i), scenario_id="s", cca="reno", objective="throughput", score=1.0)
        started = time.process_time()
        for i in range(entries, entries + REPEATS):
            store.add(_trace(i), scenario_id="s", cca="reno", objective="throughput", score=1.0)
        return 1e3 * (time.process_time() - started) / REPEATS


def delta_ms(cells: int) -> float:
    archive = BehaviorArchive()
    signatures = [
        BehaviorSignature("reno", i % 10, (i // 10) % 10, i // 100, 0, "none", "00000000")
        for i in range(cells)
    ]
    for i, signature in enumerate(signatures):
        archive.observe(signature, 1.0, f"fp-{i}", trace=_trace(i))
    assert len(archive) == cells
    mark = archive.mark
    spent = 0.0
    for repeat in range(REPEATS):
        for k in range(TOUCHED):
            archive.observe(signatures[(7 * repeat + k) % cells], 0.5, "fp-visit")
        started = time.process_time()
        changed, mark = archive.delta_since(mark)
        spent += time.process_time() - started
        assert len(changed) == TOUCHED
    return 1e3 * spent / REPEATS


def main() -> None:
    for entries in (60, 600):
        print(f"CorpusStore.add at {entries:>3} entries: {add_ms(entries):7.3f} ms CPU per add")
    for cells in (40, 400):
        print(
            f"delta_since, {TOUCHED} touched of {cells:>3} cells: "
            f"{delta_ms(cells):7.3f} ms CPU per call"
        )


if __name__ == "__main__":
    main()
