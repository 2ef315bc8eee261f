"""Dashboard tour: attach the read-only HTTP API to a live campaign.

``repro-campaign serve <corpus-dir>`` mounts a corpus
directory behind a dependency-free HTTP server: a single-file HTML
dashboard at ``/`` plus JSON endpoints for status, the telemetry stream,
the corpus index, behavior-map coverage, per-CCA vulnerability rankings and
a memoized replay service that re-simulates any stored attack against any
registered CCA.

The service is strictly observational — it never writes into the mounted
directory, so attaching it to a *running* campaign leaves the campaign's
digests, corpus fingerprints and behavior maps bit-identical to an
unobserved run.  This example exploits that the same way a second terminal
would: it runs a small campaign in a worker thread while the main thread
serves the very same corpus directory and polls every endpoint over real
HTTP, then replays the best discovered attack against a different CCA and
checks the score against the in-process replay path.

Run with no arguments for a laptop-scale demo::

    python examples/dashboard_demo.py
    python examples/dashboard_demo.py --generations 4 --population 8
"""

from __future__ import annotations

import argparse
import json
import tempfile
import threading
import time
import urllib.request

from repro.campaign import CampaignRunner, CampaignSpec, CorpusStore, replay_corpus
from repro.serve.server import DashboardServer


def build_spec(args: argparse.Namespace) -> CampaignSpec:
    return CampaignSpec.from_dict(
        {
            "name": "dashboard-demo",
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


def get_json(server: DashboardServer, path: str) -> dict:
    with urllib.request.urlopen(server.url + path, timeout=60) as resp:
        return json.load(resp)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--generations", type=int, default=3)
    parser.add_argument("--population", type=int, default=6)
    parser.add_argument("--duration", type=float, default=1.5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--poll", type=float, default=0.3,
                        help="seconds between status polls while the campaign runs")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="dashboard-demo-") as corpus_dir:
        return run_demo(args, corpus_dir)


def run_demo(args: argparse.Namespace, corpus_dir: str) -> int:
    """Run the campaign in ``corpus_dir`` while its dashboard serves it."""
    corpus = CorpusStore(corpus_dir)
    runner = CampaignRunner(build_spec(args), corpus, register_attacks=True)

    campaign_result = {}

    def run_campaign() -> None:
        campaign_result["result"] = runner.run()

    worker = threading.Thread(target=run_campaign, name="campaign")

    with DashboardServer(corpus_dir) as server:
        print(f"dashboard serving {corpus_dir}")
        print(f"  open {server.url}/ in a browser, or curl the API:\n")
        worker.start()

        # Poll the live campaign over HTTP exactly like a dashboard would.
        offset = 0
        while worker.is_alive():
            status = get_json(server, "/api/status")
            stream = get_json(server, f"/api/stream?offset={offset}")
            offset = stream["offset"]
            print(
                f"  [{status.get('state', 'unknown'):8s}] "
                f"scenarios {status.get('scenarios_completed', 0)}"
                f"/{status.get('scenarios_total', 0)}, "
                f"{status.get('evaluations', 0)} evaluations, "
                f"+{len(stream['records'])} stream records"
            )
            time.sleep(args.poll)
        worker.join()

        # The finished campaign through every endpoint.
        status = get_json(server, "/api/status")
        coverage = get_json(server, "/api/coverage")
        rankings = get_json(server, "/api/rankings")
        index = get_json(server, "/api/corpus")
        print(f"\ncampaign complete, result digest {status['result_digest']}")
        print(f"corpus entries: {index['entries']}, "
              f"behavior cells: {coverage['cells']}")
        print("per-CCA rankings (worst first):")
        for row in rankings["rows"]:
            print(f"  {row['cca']:8s} worst={row['worst_fitness']} "
                  f"evals={row['evaluations']} cells={row['behavior_cells']}")

        # Replay the strongest stored attack against BBR over HTTP and
        # check it against the in-process replay path (bit-identical).
        fingerprint = index["rows"][0]["fingerprint"]
        replayed = get_json(server, f"/api/replay/{fingerprint}?cca=bbr")
        again = get_json(server, f"/api/replay/{fingerprint}?cca=bbr")
        cli_rows = {
            row.fingerprint: row.replay_score
            for row in replay_corpus(corpus, "bbr").rows
        }
        assert replayed["score"]["total"] == cli_rows[fingerprint]
        assert again["cached"] and again["score"] == replayed["score"]
        print(f"\nreplayed {fingerprint[:12]}... against bbr over HTTP: "
              f"score {replayed['score']['total']} "
              f"(== repro-campaign replay: "
              f"{replayed['score']['total'] == cli_rows[fingerprint]}, "
              f"second request cached: {again['cached']})")

        prom = urllib.request.urlopen(server.url + "/metrics", timeout=60).read()
        print(f"/metrics exposition: {len(prom.splitlines())} lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
