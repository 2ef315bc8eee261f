"""Observability tour: watch a live campaign through its telemetry stream.

Every campaign (unless run with ``--no-telemetry``) streams its progress
into the corpus directory as it runs:

* ``metrics.jsonl`` — an append-only event stream (campaign/scenario/
  generation records plus periodic metrics-registry snapshots; the latest
  one is what ``status --prometheus`` and the dashboard's ``/metrics``
  render as Prometheus text);
* ``run_manifest.json`` — config fingerprints, versions, host info and the
  result digest, written at campaign end.

The stream is *advisory*: readers tolerate a torn tail and polling it
cannot perturb the search (instrumented code only writes counters that
nothing reads back — telemetry-on runs are bit-identical to telemetry-off
runs).  This example exploits that by running a small campaign in a worker
thread while the main thread polls ``collect_status`` against the same
corpus directory — exactly what ``repro-campaign status <corpus-dir>``
does from another terminal.

Run with no arguments for a laptop-scale demo::

    python examples/watch_campaign.py
    python examples/watch_campaign.py --generations 4 --population 8
"""

from __future__ import annotations

import argparse
import tempfile
import threading
import time

from repro.campaign import CampaignRunner, CampaignSpec, CorpusStore
from repro.obs.manifest import read_manifest
from repro.obs.status import collect_status, format_status


def build_spec(args: argparse.Namespace) -> CampaignSpec:
    return CampaignSpec.from_dict(
        {
            "name": "watch-demo",
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--generations", type=int, default=3)
    parser.add_argument("--population", type=int, default=6)
    parser.add_argument("--duration", type=float, default=1.5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--poll-interval", type=float, default=0.25,
                        help="seconds between status polls while the campaign runs")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="watch-campaign-") as corpus_dir:
        runner = CampaignRunner(
            build_spec(args),
            CorpusStore(corpus_dir),
            register_attacks=False,
        )
        worker = threading.Thread(target=runner.run, name="campaign")
        worker.start()

        # Poll the telemetry stream like a second terminal would.  Each poll
        # re-reads metrics.jsonl from scratch; the reader never touches the
        # journal or corpus state the campaign mutates.
        polls = 0
        while worker.is_alive():
            time.sleep(args.poll_interval)
            status = collect_status(corpus_dir)
            if status["campaign"] is None:
                continue  # stream not started yet
            polls += 1
            done = status["scenarios_completed"]
            total = status["scenarios_total"]
            fraction = status["progress_fraction"]
            progress = f"{fraction:.0%}" if fraction is not None else "n/a"
            print(
                f"poll {polls}: {status['state']}, scenarios {done}/{total}, "
                f"progress {progress}, evals {status['evaluations']}"
            )
        worker.join()

        print()
        print("final status (what `repro-campaign status <corpus-dir>` renders):")
        print(format_status(collect_status(corpus_dir)))

        manifest = read_manifest(corpus_dir)
        print()
        print("run manifest:")
        print(f"  spec fingerprint: {manifest['spec_fingerprint']}")
        print(f"  host: {manifest['host']['hostname']} ({manifest['host']['cpus']} cpus)")
        print(f"  result digest: {manifest['result']['deterministic_digest']}")
        print(f"  evaluations: {manifest['result']['total_evaluations']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
