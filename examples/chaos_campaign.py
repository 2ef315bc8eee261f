"""Fault-tolerant evaluation: run a campaign while evaluations misbehave.

The exec layer guarantees that one broken evaluation cannot take down a
campaign: every failure — an exception, a malformed return value, a hung
worker, a worker that dies outright — becomes a deterministic penalty
outcome with structured metadata, deterministic crashers are quarantined
(journaled, then published as ``quarantine.json`` with the corpus), hung
workers are killed at ``job_timeout`` and replaced, and dead workers are
respawned with the job retried under exponential backoff.

This example injects all four fault kinds into a real campaign with the
deterministic chaos harness (``repro.exec.chaos``) and then verifies the
load-bearing property end to end: every *healthy* trace the campaign
harvested re-evaluates bit-identically under zero faults — the chaos never
leaked into surviving results.

Run with no arguments for a laptop-scale demo::

    python examples/chaos_campaign.py
    python examples/chaos_campaign.py --fraction 0.5 --backend serial
"""

from __future__ import annotations

import argparse
import sys
import tempfile

from repro.campaign import CampaignRunner, CampaignSpec, CorpusReader, CorpusStore
from repro.exec import BACKENDS, ChaosPlan, chaos_injection, evaluate_job
from repro.obs.status import collect_status


def build_spec(args: argparse.Namespace) -> CampaignSpec:
    return CampaignSpec.from_dict(
        {
            "name": "chaos-demo",
            "ccas": ["reno"],
            "modes": ["traffic"],
            "objectives": ["throughput"],
            "conditions": [{"name": "base"}],
            "budget": {
                "population_size": args.population,
                "generations": args.generations,
                "duration": args.duration,
            },
            "seed": args.seed,
            "backend": args.backend,
            "workers": 2 if args.backend == "process" else None,
            # The fault-tolerance knobs ride in the spec (and therefore in
            # the journal): a hung evaluation is killed after this many
            # seconds, a worker-killing one retried this many times.
            "job_timeout": args.job_timeout if args.backend == "process" else None,
            "max_retries": 1,
        }
    )


def verify_healthy_entries(corpus: CorpusStore, quarantined: set) -> int:
    """Re-evaluate every healthy harvested entry with zero faults installed."""
    checked = 0
    for fingerprint in corpus.fingerprints():
        entry = corpus.get(fingerprint)
        if entry.origin != "fuzz" or fingerprint in quarantined:
            continue
        score, _ = evaluate_job(entry.evaluation_job())
        if score.total != entry.score:
            raise AssertionError(
                f"healthy entry {fingerprint[:12]} drifted under chaos: "
                f"{score.total} != {entry.score}"
            )
        checked += 1
    return checked


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--population", type=int, default=4)
    parser.add_argument("--generations", type=int, default=2)
    parser.add_argument("--duration", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--fraction", type=float, default=0.3,
                        help="share of trace fingerprints that misbehave")
    parser.add_argument("--backend", choices=BACKENDS,
                        default="process")
    parser.add_argument("--job-timeout", type=float, default=2.0,
                        help="wall-clock seconds before a hung worker is killed")
    args = parser.parse_args()

    spec = build_spec(args)
    # A chaos plan is a pure function of the trace fingerprint: the same
    # plan faults the same jobs in every process and every retry.  "hang"
    # sleeps far past the timeout; "exit" kills the worker without
    # unwinding; in-process backends downgrade both to a crash.
    plan = ChaosPlan(fraction=args.fraction, hang_s=300.0)

    with tempfile.TemporaryDirectory() as tmp:
        corpus_dir = f"{tmp}/corpus"
        print(f"campaign under chaos: ~{args.fraction:.0%} of evaluations faulted "
              f"(backend={spec.backend}, job_timeout={spec.job_timeout})")
        if spec.backend == "process":
            print("(a Python stack dump on stderr is faulthandler tracing a "
                  "hung worker as it is killed — expected under chaos)")
        with chaos_injection(plan):
            result = CampaignRunner(spec, CorpusStore(corpus_dir)).run()
        print(f"campaign completed: {len(result.outcomes)} scenario(s), "
              f"{result.outcomes[0].evaluations} evaluations")

        store = CorpusReader(corpus_dir).quarantine
        print(f"\nquarantined {len(store)} deterministic crasher(s):")
        for entry in store.entries():
            print(f"  {entry['fingerprint'][:12]}  kind={entry['kind']:<12} "
                  f"attempts={entry['attempts']}  {entry['message'][:60]}")

        faults = collect_status(corpus_dir)["faults"]
        print(f"\nfault counters: {faults['failures']} failures "
              f"({faults['timeouts']} timeouts), {faults['retries']} retries, "
              f"{faults['worker_restarts']} worker restarts")

        quarantined = {entry["fingerprint"] for entry in store.entries()}
        checked = verify_healthy_entries(CorpusStore(corpus_dir), quarantined)
        print(f"\n{checked} healthy corpus entr(ies) re-evaluated fault-free: "
              "bit-identical scores — chaos never corrupted a surviving result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
