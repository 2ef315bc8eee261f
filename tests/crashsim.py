#!/usr/bin/env python
"""Crash-injection harness for the campaign durability tests.

Runs a campaign in *this* process with a SIGKILL planted at a deterministic
injection point, so a test can ``subprocess.run`` it, watch the process die
with ``-SIGKILL``, and then assert the journal left behind resumes into a
campaign whose corpus, behavior map and summary digest are bit-identical to
an uninterrupted run.

Injection points (``--point``):

``none``
    No injection — run to completion and print the result report as JSON
    (used for subprocess baselines and for ``--resume`` verification runs).
``mid-append``
    Tear the Nth journal append in half: write only the first half of the
    record's bytes, fsync them, SIGKILL.  Exercises the torn-tail repair.
``post-append``
    SIGKILL immediately after the Nth ``corpus_insert`` journal record is
    durable — the journal is ahead of the corpus files (a campaign writes
    them only at its fold), resume must fold the insert in.
``post-checkpoint``
    SIGKILL immediately after the Nth ``generation_checkpoint`` record is
    durable — mid-scenario death; resume restores the GA mid-flight.
``pre-rename``
    SIGKILL after the Nth corpus JSON temp file is written but before the
    ``os.replace`` that publishes it — a kill inside the fold; leaves orphan
    ``*.tmp`` files plus an index that lags the journal.

``--event-type`` narrows ``mid-append`` to records of one type (by default
every append counts).  All points count from 1 via ``--nth``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

POINTS = ("none", "mid-append", "post-append", "post-checkpoint", "pre-rename")


def _die() -> None:
    """Simulate a hard crash: no atexit hooks, no finally blocks, nothing."""
    os.kill(os.getpid(), signal.SIGKILL)


def install_injection(point: str, nth: int, event_type: str = None) -> None:
    if point == "none":
        return
    state = {"count": 0}
    if point == "mid-append":
        from repro.journal.log import CampaignJournal

        original = CampaignJournal._write_line

        def torn_write(self, payload):
            record_type = json.loads(payload.decode("utf-8")).get("type")
            if event_type is None or record_type == event_type:
                state["count"] += 1
                if state["count"] == nth:
                    half = payload[: max(1, len(payload) // 2)]
                    self._handle.write(half)
                    self._handle.flush()
                    os.fsync(self._handle.fileno())
                    _die()
            original(self, payload)

        CampaignJournal._write_line = torn_write
    elif point in ("post-append", "post-checkpoint"):
        from repro.journal.log import CampaignJournal

        target = "corpus_insert" if point == "post-append" else "generation_checkpoint"
        original = CampaignJournal.append

        def killing_append(self, type, data):
            record = original(self, type, data)
            if type == target:
                state["count"] += 1
                if state["count"] == nth:
                    _die()
            return record

        CampaignJournal.append = killing_append
    elif point == "pre-rename":
        original_replace = os.replace

        def killing_replace(src, dst, *args, **kwargs):
            # Corpus files only (index.json / entries/*.json): journal
            # rotation and report files use other suffixes.
            if str(dst).endswith(".json"):
                state["count"] += 1
                if state["count"] == nth:
                    _die()
            return original_replace(src, dst, *args, **kwargs)

        os.replace = killing_replace
    else:  # pragma: no cover - argparse limits the choices
        raise ValueError(f"unknown injection point {point!r}")


def run(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignRunner, CampaignSpec, CorpusStore
    from repro.coverage.archive import BehaviorArchive

    install_injection(args.point, args.nth, args.event_type)
    if args.resume:
        runner = CampaignRunner.resume(args.corpus)
        result = runner.run()
        corpus = runner.corpus
    else:
        with open(args.spec, "r", encoding="utf-8") as handle:
            spec = CampaignSpec.from_json(handle.read())
        runner = CampaignRunner(spec, CorpusStore(args.corpus))
        result = runner.run()
        corpus = runner.corpus
    map_path = BehaviorArchive.corpus_path(args.corpus)
    with open(map_path, "r", encoding="utf-8") as handle:
        behavior_map = json.load(handle)
    print(
        json.dumps(
            {
                "digest": result.deterministic_digest(),
                "fingerprints": sorted(corpus.fingerprints()),
                "behavior_map": behavior_map,
                "scenarios": len(result.outcomes),
                "attacks_registered": result.attacks_registered,
            },
            sort_keys=True,
        )
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", required=True, help="corpus directory")
    parser.add_argument("--spec", default=None, help="campaign spec JSON (fresh runs)")
    parser.add_argument("--resume", action="store_true",
                        help="resume from the corpus journal instead of --spec")
    parser.add_argument("--point", choices=POINTS, default="none")
    parser.add_argument("--nth", type=int, default=1,
                        help="1-based occurrence of the injection point to kill at")
    parser.add_argument("--event-type", default=None,
                        help="restrict mid-append to records of this type")
    args = parser.parse_args(argv)
    if not args.resume and args.spec is None:
        parser.error("--spec is required unless --resume is given")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
