"""Durable campaigns: kill a run with SIGKILL mid-flight, then resume it.

Every campaign appends its progress to an append-only journal next to the
corpus (``journal.jsonl``): the spec at start, a fuzzer checkpoint per
evaluated generation, a write-ahead record per corpus insert.  If the
process dies — OOM kill, pre-empted spot instance, Ctrl-C twice — the
journal replays into the exact mid-campaign state and the run continues
from the last checkpoint instead of from scratch.

This example demonstrates the whole cycle in one script:

1. run a small two-CCA campaign in a child process that SIGKILLs itself
   right after the first generation checkpoint of the first scenario;
2. resume the wreckage with ``CampaignRunner.resume`` (the CLI equivalent
   is ``repro-campaign run --corpus DIR --resume``);
3. run the same spec uninterrupted in a second corpus and verify the two
   campaigns produced bit-identical corpora and summary digests.

Run with no arguments for a laptop-scale demo::

    python examples/resume_campaign.py
    python examples/resume_campaign.py --generations 3 --population 6
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile

from repro.campaign import CampaignRunner, CampaignSpec, CorpusStore


def build_spec(args: argparse.Namespace) -> CampaignSpec:
    return CampaignSpec.from_dict(
        {
            "name": "resume-demo",
            "ccas": ["reno", "cubic"],
            "modes": ["traffic"],
            "objectives": ["throughput"],
            "conditions": [{"name": "base"}],
            "budget": {
                "population_size": args.population,
                "generations": args.generations,
                "duration": args.duration,
            },
            "seed": args.seed,
            "seed_limit": 2,
        }
    )


def child_main(corpus_dir: str, spec_json: str) -> None:
    """Run the campaign, but SIGKILL ourselves after the first checkpoint."""
    from repro.journal.log import CampaignJournal

    original = CampaignJournal.append

    def kill_after_first_checkpoint(self, type, data):
        record = original(self, type, data)
        if type == "generation_checkpoint":
            os.kill(os.getpid(), signal.SIGKILL)
        return record

    CampaignJournal.append = kill_after_first_checkpoint
    spec = CampaignSpec.from_json(spec_json)
    CampaignRunner(spec, CorpusStore(corpus_dir)).run()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--population", type=int, default=4)
    parser.add_argument("--generations", type=int, default=2)
    parser.add_argument("--duration", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--child", nargs=2, metavar=("CORPUS", "SPEC_FILE"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.child:
        corpus_dir, spec_file = args.child
        with open(spec_file, "r", encoding="utf-8") as handle:
            child_main(corpus_dir, handle.read())
        return 0  # unreachable: the kill hook fires first

    spec = build_spec(args)
    with tempfile.TemporaryDirectory() as workdir:
        crashed_dir = os.path.join(workdir, "crashed-corpus")
        spec_file = os.path.join(workdir, "spec.json")
        with open(spec_file, "w", encoding="utf-8") as handle:
            handle.write(spec.to_json())

        print("== 1. campaign killed by SIGKILL after its first checkpoint ==")
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--population", str(args.population),
             "--generations", str(args.generations),
             "--duration", str(args.duration),
             "--seed", str(args.seed),
             "--child", crashed_dir, spec_file],
            capture_output=True, text=True,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        journal_path = os.path.join(crashed_dir, "journal.jsonl")
        with open(journal_path, "r", encoding="utf-8") as handle:
            events = [json.loads(line)["type"] for line in handle if line.strip()]
        print(f"process died by SIGKILL; journal holds {len(events)} events:")
        print("  " + ", ".join(sorted(set(events))))

        print("\n== 2. resume from the journal ==")
        resumed = CampaignRunner.resume(crashed_dir, progress=print).run()

        print("\n== 3. uninterrupted control run ==")
        control_dir = os.path.join(workdir, "control-corpus")
        control = CampaignRunner(
            spec, CorpusStore(control_dir), progress=print
        ).run()

        resumed_fps = sorted(CorpusStore(crashed_dir).fingerprints())
        control_fps = sorted(CorpusStore(control_dir).fingerprints())
        assert resumed_fps == control_fps, "corpora diverged!"
        assert resumed.deterministic_digest() == control.deterministic_digest(), (
            "summaries diverged!"
        )
        print(
            f"\nresumed campaign == uninterrupted campaign: "
            f"{len(resumed_fps)} corpus entries, "
            f"digest {resumed.deterministic_digest()}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
