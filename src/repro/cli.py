"""Command-line interface.

Seven entry points are installed with the package:

* ``repro-fuzz`` — run the genetic search against a CCA and save the best
  traces found.
* ``repro-simulate`` — run a single simulation (fixed link, trace file, or a
  built-in attack trace) and print a metrics report.
* ``repro-trace`` — generate or inspect trace files.
* ``repro-campaign`` — orchestrate a whole matrix of fuzzing scenarios over
  a persistent attack corpus (``run``/``replay``/``report``/``triage``).
* ``repro-triage`` — minimize, robustness-validate and differentially
  compare one attack trace (a file, a builtin attack, or a corpus entry).
* ``repro-coverage`` — inspect behavior-coverage archives
  (``map``/``diff``/``gaps``).
* ``repro-serve`` — read-only HTTP dashboard and query/replay API over a
  corpus directory (also reachable as ``repro-campaign serve``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional

from .analysis.metrics import compute_metrics
from .analysis.reporting import (
    ascii_chart,
    format_coverage_gaps,
    format_coverage_map,
    format_generation_progress,
    format_table,
    format_triage_report,
)
from .attacks import bbr_stall_traffic_trace, builtin_attack_traces, lowrate_attack_trace
from .campaign import (
    CampaignRunner,
    CampaignSpec,
    CorpusReader,
    CorpusStore,
    format_campaign_report,
    format_corpus_report,
    format_replay_report,
    read_campaign_report,
    replay_corpus,
    run_fleet,
    write_campaign_report,
)
from .campaign.worker import DEFAULT_POLL_S
from .core.fuzzer import CCFuzz, FuzzConfig
from .coverage import (
    GUIDANCE_MODES,
    BehaviorArchive,
    BehaviorSignature,
    diff_archives,
    signature_from_summary,
)
from .exec.backend import BACKENDS, create_backend
from .exec.batch import Evaluator
from .journal import CampaignJournal
from .netsim.simulation import SimulationConfig, run_simulation
from .obs import (
    METRICS_FILENAME,
    CampaignTelemetry,
    Console,
    StatusWatcher,
    add_console_flags,
    collect_status,
    format_status,
    latest_snapshot,
    prometheus_text,
    read_metrics,
    status_json,
)
from .scoring.objectives import OBJECTIVES, make_score_function
from .tcp.cca import CCA_FACTORIES
from .traces.generator import LinkTraceGenerator, TrafficTraceGenerator
from .traces.trace import LinkTrace, PacketTrace, TrafficTrace
from .triage import (
    DifferentialConfig,
    MinimizeConfig,
    RobustnessConfig,
    TriageConfig,
    triage_corpus,
    triage_trace,
)


# --------------------------------------------------------------------------- #
# repro-fuzz
# --------------------------------------------------------------------------- #


def fuzz_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-fuzz``."""
    parser = argparse.ArgumentParser(
        prog="repro-fuzz",
        description="Genetic-algorithm stress testing of congestion control algorithms (CC-Fuzz).",
    )
    parser.add_argument("--cca", choices=sorted(CCA_FACTORIES), default="bbr")
    parser.add_argument("--mode", choices=["link", "traffic", "loss"], default="traffic")
    parser.add_argument("--objective", choices=sorted(OBJECTIVES), default="throughput")
    parser.add_argument("--population", type=int, default=16, help="traces per island")
    parser.add_argument("--islands", type=int, default=1)
    parser.add_argument("--generations", type=int, default=10)
    parser.add_argument("--duration", type=float, default=5.0, help="seconds simulated per trace")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--annealing-sigma", type=float, default=None)
    parser.add_argument("--output", type=str, default=None, help="write the best trace as JSON")
    parser.add_argument(
        "--output-dir",
        type=str,
        default=None,
        help="dump the full top-k with provenance metadata as a corpus directory",
    )
    parser.add_argument("--top", type=int, default=5, help="how many best traces to report")
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default="serial",
        help="evaluation backend; 'process' gives real parallelism on multi-core machines",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker pool size for the process backend (default: one per CPU)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable evaluation memoization (every trace is re-simulated)",
    )
    parser.add_argument(
        "--guidance",
        choices=sorted(GUIDANCE_MODES),
        default="score",
        help="search guidance: 'score' is the paper's pure-fitness GA; "
             "'novelty'/'elites' reward behaviorally diverse traces via the "
             "MAP-Elites behavior archive",
    )
    parser.add_argument(
        "--coverage-output",
        type=str,
        default=None,
        help="write the run's behavior archive (behavior map JSON)",
    )
    add_console_flags(parser)
    args = parser.parse_args(argv)
    console = Console.from_args(args)
    if args.workers is not None and args.workers < 1:
        parser.error("--workers must be at least 1")

    config = FuzzConfig(
        mode=args.mode,
        population_size=args.population,
        islands=args.islands,
        generations=args.generations,
        duration=args.duration,
        seed=args.seed,
        annealing_sigma=args.annealing_sigma,
        backend=args.backend,
        workers=args.workers,
        use_cache=not args.no_cache,
        guidance=args.guidance,
    )
    fuzzer = CCFuzz(
        CCA_FACTORIES[args.cca],
        config=config,
        score_function=make_score_function(args.objective, args.mode),
    )

    def report_progress(stats) -> None:
        console.info(
            f"generation {stats.generation:3d}  best={stats.best_fitness:10.4f}  "
            f"top-k mean={stats.top_k_mean_fitness:10.4f}  mean={stats.mean_fitness:10.4f}"
        )

    result = fuzzer.run(progress=report_progress)
    console.info()
    console.result(format_generation_progress(result.generations))
    console.result()
    if result.cache_stats:
        # Per-run numbers (cache_stats counts the cache's whole lifetime,
        # which can span several runs when a cache is shared).
        lookups = result.total_evaluations + result.cache_hits
        hit_rate = result.cache_hits / lookups if lookups else 0.0
        console.result(
            f"evaluations: {result.total_evaluations} simulated, "
            f"{result.cache_hits} served from cache (hit rate {hit_rate:.1%})"
        )
    else:
        console.result(f"evaluations: {result.total_evaluations} simulated (cache disabled)")
    coverage = result.coverage or {}
    console.result(
        f"behavior coverage ({result.guidance} guidance): "
        f"{coverage.get('cells', 0)} cells from "
        f"{coverage.get('observations', 0)} observations"
    )
    console.result()
    rows = [
        {
            "rank": rank + 1,
            "fitness": individual.fitness,
            "origin": individual.origin,
            "packets": individual.trace.packet_count,
            "throughput_mbps": individual.result_summary.get("throughput_mbps", "n/a"),
        }
        for rank, individual in enumerate(result.top_individuals(args.top))
    ]
    console.result(format_table(rows))

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(result.best_trace.to_json())
        console.info(f"\nbest trace written to {args.output}")

    if args.output_dir:
        store = CorpusStore(args.output_dir)
        sim = config.sim
        condition = {
            "bottleneck_rate_mbps": sim.bottleneck_rate_mbps,
            "queue_capacity": sim.queue_capacity,
            "propagation_delay": sim.propagation_delay,
        }
        added = 0
        for individual in result.top_individuals(args.top):
            if not individual.is_evaluated:
                continue
            behavior = individual.result_summary.get("behavior_signature")
            added += store.add(
                individual.trace,
                scenario_id=f"cli/{args.cca}/{args.mode}/{args.objective}",
                cca=args.cca,
                objective=args.objective,
                score=individual.fitness,
                generation_found=individual.generation_born,
                origin="fuzz",
                condition=condition,
                behavior=dict(behavior) if isinstance(behavior, dict) else None,
            )
        console.info(
            f"top-{args.top} written to corpus {args.output_dir} "
            f"({added} new, {len(store)} total entries)"
        )

    if args.coverage_output and result.archive is not None:
        result.archive.save(args.coverage_output)
        console.info(f"behavior map written to {args.coverage_output}")
    return 0


# --------------------------------------------------------------------------- #
# repro-simulate
# --------------------------------------------------------------------------- #


def simulate_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-simulate``."""
    parser = argparse.ArgumentParser(
        prog="repro-simulate",
        description="Run one CCA through the dumbbell bottleneck and report metrics.",
    )
    parser.add_argument("--cca", choices=sorted(CCA_FACTORIES), default="bbr")
    parser.add_argument("--duration", type=float, default=5.0)
    parser.add_argument("--rate-mbps", type=float, default=12.0)
    parser.add_argument("--queue", type=int, default=60, help="gateway queue capacity in packets")
    parser.add_argument("--trace", type=str, default=None, help="JSON trace file (link or traffic)")
    parser.add_argument(
        "--attack",
        choices=["none", "lowrate", "bbr-stall"],
        default="none",
        help="use a built-in attack trace instead of a file",
    )
    parser.add_argument("--plot", action="store_true", help="print an ASCII throughput chart")
    add_console_flags(parser)
    args = parser.parse_args(argv)
    console = Console.from_args(args)
    if args.trace and args.attack != "none":
        parser.error("--trace and --attack are mutually exclusive; pick one input")

    config = SimulationConfig(
        duration=args.duration,
        bottleneck_rate_mbps=args.rate_mbps,
        queue_capacity=args.queue,
    )

    link_trace = None
    cross_times = None
    if args.trace:
        with open(args.trace, "r", encoding="utf-8") as handle:
            trace = PacketTrace.from_json(handle.read())
        if isinstance(trace, LinkTrace):
            link_trace = trace.timestamps
        else:
            cross_times = trace.timestamps
    elif args.attack == "lowrate":
        cross_times = lowrate_attack_trace(duration=args.duration).timestamps
    elif args.attack == "bbr-stall":
        cross_times = bbr_stall_traffic_trace(duration=args.duration).timestamps

    result = run_simulation(
        CCA_FACTORIES[args.cca],
        config,
        link_trace=link_trace,
        cross_traffic_times=cross_times,
    )
    metrics = compute_metrics(result)
    console.result(format_table([metrics.as_dict()]))
    if args.plot:
        console.result()
        console.result(
            ascii_chart(
                result.windowed_throughput(window=0.25),
                title=f"{args.cca} windowed throughput (Mbps)",
                y_label="Mbps",
            )
        )
    return 0


# --------------------------------------------------------------------------- #
# repro-trace
# --------------------------------------------------------------------------- #


def trace_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-trace``."""
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Generate or inspect CC-Fuzz trace files.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a random trace")
    generate.add_argument("--mode", choices=["link", "traffic"], default="link")
    generate.add_argument("--duration", type=float, default=5.0)
    generate.add_argument("--rate-mbps", type=float, default=12.0)
    generate.add_argument("--max-packets", type=int, default=1000)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--output", type=str, required=True)

    inspect = subparsers.add_parser("inspect", help="summarise an existing trace file")
    inspect.add_argument("path", type=str)
    inspect.add_argument("--window", type=float, default=0.25)

    for subparser in (generate, inspect):
        add_console_flags(subparser)

    args = parser.parse_args(argv)
    console = Console.from_args(args)

    if args.command == "generate":
        if args.mode == "link":
            generator = LinkTraceGenerator(
                duration=args.duration, average_rate_mbps=args.rate_mbps, seed=args.seed
            )
        else:
            generator = TrafficTraceGenerator(
                duration=args.duration, max_packets=args.max_packets, seed=args.seed
            )
        trace = generator.generate()
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(trace.to_json())
        console.info(
            f"wrote {type(trace).__name__} with {trace.packet_count} packets "
            f"({trace.average_rate_mbps:.2f} Mbps average) to {args.output}"
        )
        return 0

    with open(args.path, "r", encoding="utf-8") as handle:
        trace = PacketTrace.from_json(handle.read())
    console.result(f"type: {type(trace).__name__}")
    console.result(f"packets: {trace.packet_count}")
    console.result(f"duration: {trace.duration} s")
    console.result(f"average rate: {trace.average_rate_mbps:.3f} Mbps")
    console.result()
    console.result(
        ascii_chart(trace.windowed_rates_mbps(args.window), title="windowed rate", y_label="Mbps")
    )
    return 0


# --------------------------------------------------------------------------- #
# repro-triage
# --------------------------------------------------------------------------- #


def _triage_config(args: argparse.Namespace) -> TriageConfig:
    """Build the pipeline configuration shared by both triage CLIs."""
    return TriageConfig(
        minimize=MinimizeConfig(
            retention=args.retention, max_evaluations=args.max_evaluations
        ),
        robustness=RobustnessConfig(),
        differential=DifferentialConfig(),
        run_minimize=not args.skip_minimize,
        run_robustness=not args.skip_robustness,
        run_differential=not args.skip_differential,
    )


def _add_triage_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--retention", type=float, default=0.9,
        help="fraction of the attack score the minimized trace must keep",
    )
    parser.add_argument(
        "--max-evaluations", type=int, default=400,
        help="candidate-evaluation budget for one trace's minimization "
             "(charged before cache hits, so results never depend on cache warmth)",
    )
    parser.add_argument("--skip-minimize", action="store_true",
                        help="skip the delta-debugging minimizer")
    parser.add_argument("--skip-robustness", action="store_true",
                        help="skip the perturbation-matrix validation")
    parser.add_argument("--skip-differential", action="store_true",
                        help="skip the cross-CCA comparison")
    parser.add_argument("--backend", choices=BACKENDS, default="serial")
    parser.add_argument("--workers", type=int, default=None)


def triage_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-triage``."""
    parser = argparse.ArgumentParser(
        prog="repro-triage",
        description=(
            "Post-fuzzing attack triage: minimize a trace while preserving its "
            "attack score, validate it across a perturbation matrix, and compare "
            "its effect across every registered CCA."
        ),
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--trace", type=str, help="JSON trace file to triage")
    source.add_argument(
        "--attack",
        choices=sorted(builtin_attack_traces(1.0)),
        help="triage a builtin attack trace instead of a file",
    )
    source.add_argument("--corpus", type=str,
                        help="corpus directory; pick the entry with --fingerprint")
    parser.add_argument("--fingerprint", type=str, default=None,
                        help="fingerprint (a unique prefix is enough) of the "
                             "corpus entry to triage")
    parser.add_argument("--cca", choices=sorted(CCA_FACTORIES), default=None,
                        help="CCA the attack targets (default: the corpus entry's "
                             "discovery CCA, else reno)")
    parser.add_argument("--objective", choices=sorted(OBJECTIVES), default=None,
                        help="scoring objective (default: the corpus entry's, "
                             "else throughput)")
    parser.add_argument("--duration", type=float, default=None,
                        help="trace duration for --attack (default 6.0; "
                             "--trace/--corpus traces carry their own)")
    parser.add_argument("--rate-mbps", type=float, default=None,
                        help="bottleneck rate (default 12.0; a --corpus entry "
                             "replays under its recorded condition)")
    parser.add_argument("--queue", type=int, default=None,
                        help="queue capacity (default 60; a --corpus entry "
                             "replays under its recorded condition)")
    parser.add_argument("--output", type=str, default=None,
                        help="write the full triage report as JSON")
    parser.add_argument("--output-trace", type=str, default=None,
                        help="write the minimized trace as JSON")
    _add_triage_options(parser)
    add_console_flags(parser)
    args = parser.parse_args(argv)
    console = Console.from_args(args)
    if args.workers is not None and args.workers < 1:
        parser.error("--workers must be at least 1")
    if args.output_trace and args.skip_minimize:
        parser.error("--output-trace needs the minimizer; drop --skip-minimize")
    if args.fingerprint and not args.corpus:
        parser.error("--fingerprint only makes sense with --corpus")
    # Flags that would be silently overridden are rejected, not ignored: a
    # corpus entry replays under its recorded network condition, and file
    # traces carry their own duration.
    if args.corpus and (args.rate_mbps is not None or args.queue is not None):
        parser.error("--rate-mbps/--queue conflict with --corpus "
                     "(the entry's recorded condition is used)")
    if args.duration is not None and not args.attack:
        parser.error("--duration only applies to --attack traces")

    cca = args.cca or "reno"
    objective = args.objective or "throughput"
    sim_config = None
    if args.trace:
        with open(args.trace, "r", encoding="utf-8") as handle:
            trace = PacketTrace.from_json(handle.read())
    elif args.corpus:
        if not args.fingerprint:
            parser.error("--corpus needs --fingerprint to pick an entry")
        if not CorpusReader.is_corpus(args.corpus):
            parser.error(f"no corpus at {args.corpus} (missing index.json)")
        store = CorpusReader(args.corpus)
        matches = [fp for fp in store.fingerprints() if fp.startswith(args.fingerprint)]
        if len(matches) != 1:
            parser.error(
                f"fingerprint {args.fingerprint!r} matches {len(matches)} corpus entries"
            )
        entry = store.get(matches[0])
        trace = entry.trace
        # The entry's provenance wins over the generic sim flags: triage it
        # under the conditions (and against the CCA) it was discovered with.
        sim_config = entry.sim_config()
        cca = args.cca or entry.cca or "reno"
        objective = args.objective or entry.objective or "throughput"
    else:
        trace = builtin_attack_traces(args.duration if args.duration is not None else 6.0)[
            args.attack
        ]
    if type(trace) is PacketTrace:
        parser.error(
            "trace has no concrete type (LinkTrace/TrafficTrace/LossTrace); "
            're-export it with a "type" field'
        )
    if isinstance(trace, LinkTrace) and args.rate_mbps is not None:
        parser.error(
            "--rate-mbps conflicts with a link trace (the trace itself is the "
            "service curve and fixes the bandwidth)"
        )

    if sim_config is None:
        sim_config = SimulationConfig(
            duration=trace.duration,
            bottleneck_rate_mbps=args.rate_mbps if args.rate_mbps is not None else 12.0,
            queue_capacity=args.queue if args.queue is not None else 60,
        )
    backend = create_backend(args.backend, args.workers)
    try:
        report = triage_trace(
            trace,
            cca=cca,
            objective=objective,
            sim_config=sim_config,
            backend=backend,
            config=_triage_config(args),
        )
    finally:
        backend.close()

    console.result(format_triage_report(report.to_dict()))
    console.result(
        f"\n{report.simulations} simulations "
        f"(+{report.cache_hits} cache hits) in {report.wall_time_s:.1f}s"
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=1, sort_keys=True)
        console.info(f"triage report written to {args.output}")
    if args.output_trace:
        with open(args.output_trace, "w", encoding="utf-8") as handle:
            handle.write(report.triaged_trace.to_json())
        console.info(f"minimized trace written to {args.output_trace}")
    return 0


# --------------------------------------------------------------------------- #
# repro-coverage
# --------------------------------------------------------------------------- #


def _load_archive(path: str, parser: argparse.ArgumentParser) -> BehaviorArchive:
    """Load a behavior archive from a map file or a campaign corpus dir.

    A corpus directory is resolved through its ``behavior_map.json`` when a
    campaign has written one; otherwise the archive is reconstructed from
    the per-entry behavior annotations in the corpus index (no simulation).
    """
    if os.path.isdir(path):
        map_path = BehaviorArchive.corpus_path(path)
        if os.path.exists(map_path):
            return BehaviorArchive.load(map_path)
        if not CorpusReader.is_corpus(path):
            parser.error(f"{path} is neither a behavior map nor a corpus directory")
        archive = BehaviorArchive()
        for entry in CorpusReader(path).entries():
            if not entry.behavior:
                continue
            try:
                signature = BehaviorSignature.from_dict(entry.behavior)
            except (KeyError, TypeError, ValueError):
                continue
            archive.observe(
                signature,
                entry.score,
                entry.fingerprint,
                trace=entry.trace,
                provenance={"scenario": entry.scenario_id, "objective": entry.objective},
            )
        return archive
    if not os.path.exists(path):
        parser.error(f"no behavior map or corpus at {path}")
    return BehaviorArchive.load(path)


def coverage_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-coverage``."""
    parser = argparse.ArgumentParser(
        prog="repro-coverage",
        description=(
            "Inspect behavior-coverage archives: render the MAP-Elites behavior "
            "map of a fuzzing campaign, diff two maps, or list descriptor-space "
            "gaps worth steering the search toward."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    map_parser = subparsers.add_parser("map", help="render a behavior map")
    map_parser.add_argument(
        "path", type=str,
        help="behavior map JSON, or a campaign corpus directory",
    )
    map_parser.add_argument("--top", type=int, default=10, help="elite cells to list")
    map_parser.add_argument("--json", action="store_true",
                            help="print the raw archive JSON instead of the ASCII map")
    map_parser.add_argument(
        "--rebuild", action="store_true",
        help="re-simulate every corpus entry to (re)compute its behavior "
             "signature, annotate the corpus and rewrite behavior_map.json",
    )

    diff_parser = subparsers.add_parser("diff", help="compare two behavior maps")
    diff_parser.add_argument("path_a", type=str, help="baseline map or corpus dir")
    diff_parser.add_argument("path_b", type=str, help="comparison map or corpus dir")

    gaps_parser = subparsers.add_parser(
        "gaps", help="list under-covered regions of the descriptor space"
    )
    gaps_parser.add_argument("path", type=str, help="behavior map or corpus dir")

    for subparser in (map_parser, diff_parser, gaps_parser):
        add_console_flags(subparser)

    args = parser.parse_args(argv)
    console = Console.from_args(args)

    if args.command == "map":
        if args.rebuild:
            if not (os.path.isdir(args.path) and CorpusReader.is_corpus(args.path)):
                parser.error("--rebuild needs a corpus directory")
            archive = _rebuild_corpus_coverage(args.path, console)
            # Status goes to stderr so `--rebuild --json` still emits clean
            # JSON on stdout.
            console.status(
                f"behavior map rebuilt and written to {BehaviorArchive.corpus_path(args.path)}"
            )
        else:
            archive = _load_archive(args.path, parser)
        if args.json:
            console.result(json.dumps(archive.to_dict(), indent=1, sort_keys=True))
        else:
            console.result(format_coverage_map(archive, top=args.top))
        return 0

    if args.command == "diff":
        archive_a = _load_archive(args.path_a, parser)
        archive_b = _load_archive(args.path_b, parser)
        delta = diff_archives(archive_a, archive_b)
        console.result(
            f"cells: {len(archive_a.cell_keys())} in A, {len(archive_b.cell_keys())} in B, "
            f"{len(delta['shared'])} shared"
        )
        for label, cells in (("only in A", delta["only_a"]), ("only in B", delta["only_b"])):
            console.result(f"\n{label} ({len(cells)}):")
            for cell in cells[:25]:
                console.result(f"  {cell}")
            if len(cells) > 25:
                console.result(f"  ... and {len(cells) - 25} more")
        improved = [
            (cell, diff) for cell, diff in delta["score_deltas"] if diff is not None and diff > 0
        ]
        if improved:
            improved.sort(key=lambda item: -item[1])
            console.result(f"\nshared cells where B's elite scores higher ({len(improved)}):")
            for cell, diff in improved[:10]:
                console.result(f"  {cell}  (+{diff:.4f})")
        return 0

    archive = _load_archive(args.path, parser)
    console.result(format_coverage_gaps(archive))
    return 0


def _rebuild_corpus_coverage(corpus_dir: str, console: Console) -> BehaviorArchive:
    """Re-evaluate a corpus to refresh behavior annotations + the map."""
    store = CorpusStore(corpus_dir)
    archive = BehaviorArchive()
    # No recorded discovery CCA (builtin attacks, imports) means no
    # discovery-time behavior to reproduce; annotating such entries with an
    # arbitrary CCA's behavior would invent coverage no fuzzing run produced.
    entries = [entry for entry in store.entries() if entry.cca]
    skipped = len(store) - len(entries)
    # The jobs are the ones discovery ran, so the outcomes carry the
    # discovery-time signatures: rebuilding an unchanged corpus leaves every
    # annotation as it was.
    outcomes = Evaluator().evaluate([entry.evaluation_job() for entry in entries])
    for entry, (_, summary) in zip(entries, outcomes):
        signature = signature_from_summary(summary)
        if signature is None:
            console.status(f"evaluation of {entry.fingerprint[:12]} failed; annotation kept")
            continue
        store.annotate_behavior(entry.fingerprint, signature.to_dict())
        archive.observe(
            signature,
            entry.score,
            entry.fingerprint,
            trace=entry.trace,
            provenance={"scenario": entry.scenario_id, "objective": entry.objective},
        )
    if skipped:
        console.status(
            f"skipped {skipped} entries with no recorded discovery CCA "
            "(builtins/imports)"
        )
    archive.save(BehaviorArchive.corpus_path(corpus_dir))
    return archive


# --------------------------------------------------------------------------- #
# repro-serve
# --------------------------------------------------------------------------- #


def _add_serve_options(parser: argparse.ArgumentParser) -> None:
    """Options shared by ``repro-serve`` and ``repro-campaign serve``."""
    parser.add_argument(
        "corpus", type=str,
        help="corpus directory to mount (read-only; safe on a live campaign)",
    )
    parser.add_argument("--host", type=str, default="127.0.0.1",
                        help="interface to bind")
    parser.add_argument("--port", type=int, default=8642,
                        help="port to bind (0 = pick a free port)")
    parser.add_argument(
        "--backend", choices=BACKENDS, default="serial",
        help="evaluation backend for the replay endpoint",
    )
    parser.add_argument("--workers", type=int, default=None,
                        help="worker count for the process replay backend")
    parser.add_argument(
        "--http-log", action="store_true",
        help="log each HTTP request to stderr",
    )


def _run_serve(args: argparse.Namespace, parser: argparse.ArgumentParser,
               console: Console) -> int:
    """Start a dashboard server from parsed serve options and block."""
    from .serve import DashboardServer

    if not os.path.isdir(args.corpus):
        parser.error(f"no corpus directory at {args.corpus}")
    if args.workers is not None and args.workers < 1:
        parser.error("--workers must be at least 1")
    backend = create_backend(args.backend, args.workers)
    server = DashboardServer(
        args.corpus,
        host=args.host,
        port=args.port,
        backend=backend,
        verbose=args.http_log,
    )
    console.info(f"serving {args.corpus} at {server.url} (Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        console.info("\nstopping")
    finally:
        server.stop()
    return 0


def _watch_status(args: argparse.Namespace, console: Console) -> int:
    """``repro-campaign status --watch N``: poll with incremental reads.

    Each tick tails only the bytes appended to ``metrics.jsonl`` since the
    last one (the same incremental reader the dashboard's ``/api/stream``
    endpoint uses), so watching a long campaign stays O(new records) per
    tick instead of re-reading the whole stream.
    """
    watcher = StatusWatcher(args.corpus)
    clear = "\x1b[2J\x1b[H" if sys.stdout.isatty() else ""
    try:
        while True:
            status = watcher.poll()
            if args.json:
                console.result(status_json(status))
            else:
                console.result(clear + format_status(status))
            if status.get("state") == "complete":
                return 0
            time.sleep(args.watch)
    except KeyboardInterrupt:
        return 0


def serve_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-serve``."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Read-only HTTP dashboard and query/replay API over a campaign "
            "corpus directory (strictly observational: attaching to a live "
            "campaign does not perturb its artifacts)."
        ),
    )
    _add_serve_options(parser)
    add_console_flags(parser)
    args = parser.parse_args(argv)
    return _run_serve(args, parser, Console.from_args(args))


# --------------------------------------------------------------------------- #
# repro-campaign
# --------------------------------------------------------------------------- #


def _spec_overrides(parser, args, fields) -> Dict[str, object]:
    """The spec fields this command line overrides (``None`` = keep the spec's), validated."""
    checks = {
        "workers": (lambda value: value >= 1, "--workers must be at least 1"),
        "job_timeout": (lambda value: value > 0, "--job-timeout must be positive"),
        "max_retries": (lambda value: value >= 0, "--max-retries must be non-negative"),
    }
    overrides = {
        name: getattr(args, name) for name in fields if getattr(args, name) is not None
    }
    for name, value in overrides.items():
        if name in checks and not checks[name][0](value):
            parser.error(checks[name][1])
    return overrides


def campaign_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-campaign``."""
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description=(
            "Orchestrate a matrix of fuzzing scenarios (CCAs x modes x objectives x "
            "network conditions) over a persistent, deduplicated attack corpus."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run a campaign spec and grow the corpus")
    run_parser.add_argument("--spec", type=str, default=None, help="campaign spec JSON file")
    run_parser.add_argument("--corpus", type=str, required=True, help="corpus directory")
    run_parser.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted campaign from the corpus journal "
             "(the spec is recovered from the journal; --spec is not allowed)",
    )
    run_parser.add_argument(
        "--backend", choices=BACKENDS, default=None,
        help="override the spec's evaluation backend",
    )
    run_parser.add_argument("--workers", type=int, default=None, help="override the spec's pool size")
    run_parser.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="override the spec's per-evaluation wall-clock limit "
             "(process backend kills and replaces the overdue worker)",
    )
    run_parser.add_argument(
        "--max-retries", type=int, default=None,
        help="override the spec's retry budget for evaluations whose pool "
             "worker died",
    )
    run_parser.add_argument(
        "--no-attacks", action="store_true",
        help="do not register the builtin attack library as initial corpus entries",
    )
    run_parser.add_argument(
        "--harvest-top-k", type=int, default=3,
        help="how many top traces per scenario to store in the corpus",
    )
    run_parser.add_argument(
        "--progress", action="store_true",
        help="render a live one-line progress status on stderr while the campaign runs",
    )
    run_parser.add_argument(
        "--no-telemetry", action="store_true",
        help="do not write metrics.jsonl / metrics.prom / run_manifest.json "
             "into the corpus directory",
    )

    status_parser = subparsers.add_parser(
        "status",
        help="show a campaign's progress from its telemetry (works on live "
             "and finished campaigns)",
    )
    status_parser.add_argument(
        "corpus", type=str,
        help="corpus directory holding metrics.jsonl",
    )
    status_format = status_parser.add_mutually_exclusive_group()
    status_format.add_argument("--json", action="store_true",
                               help="emit the status as JSON")
    status_format.add_argument(
        "--prometheus", action="store_true",
        help="emit the latest metrics snapshot in Prometheus text format",
    )
    status_parser.add_argument(
        "--watch", type=float, default=None, metavar="SECONDS",
        help="re-render every SECONDS using incremental telemetry reads "
             "(tails metrics.jsonl instead of re-reading it; Ctrl-C to stop)",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="serve the read-only HTTP dashboard and query/replay API over a "
             "corpus directory",
    )
    _add_serve_options(serve_parser)

    replay_parser = subparsers.add_parser(
        "replay", help="re-simulate the whole corpus against one CCA and report score deltas"
    )
    replay_parser.add_argument("--corpus", type=str, required=True)
    replay_parser.add_argument("--cca", choices=sorted(CCA_FACTORIES), required=True)
    replay_parser.add_argument("--mode", choices=["link", "traffic", "loss"], default=None)
    replay_parser.add_argument("--backend", choices=BACKENDS, default="serial")
    replay_parser.add_argument("--workers", type=int, default=None)
    replay_parser.add_argument("--output", type=str, default=None, help="write the replay report as JSON")

    report_parser = subparsers.add_parser("report", help="summarise a corpus directory")
    report_parser.add_argument("--corpus", type=str, required=True)
    report_parser.add_argument("--top", type=int, default=10, help="scored entries to list")

    triage_parser = subparsers.add_parser(
        "triage",
        help=(
            "triage every untriaged corpus entry in place: store minimized "
            "variants with provenance links and robustness/differential verdicts"
        ),
    )
    triage_parser.add_argument("--corpus", type=str, required=True)
    triage_parser.add_argument(
        "--default-cca", choices=sorted(CCA_FACTORIES), default="reno",
        help="CCA for entries without a recorded discovery CCA (builtins, imports)",
    )
    triage_parser.add_argument("--limit", type=int, default=None,
                               help="triage at most this many entries")
    triage_parser.add_argument(
        "--force", action="store_true",
        help="re-triage entries that already carry a verdict "
             "(e.g. after a run with --skip-* engines)",
    )
    _add_triage_options(triage_parser)

    workers_parser = subparsers.add_parser(
        "workers",
        help="run a campaign with a fleet of worker processes sharing one "
             "corpus (expired leases are stolen; digest matches the inline -n 0 run)",
    )
    workers_parser.add_argument("--spec", type=str, required=True, help="campaign spec JSON file")
    workers_parser.add_argument("--corpus", type=str, required=True, help="shared corpus directory")
    workers_parser.add_argument(
        "-n", "--workers", type=int, default=2,
        help="worker processes to spawn (0 = run everything inline in this process)",
    )
    workers_parser.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="override the spec's per-evaluation wall-clock limit",
    )
    workers_parser.add_argument(
        "--max-retries", type=int, default=None,
        help="override the spec's retry budget for evaluations whose pool "
             "worker died",
    )
    workers_parser.add_argument(
        "--poll", type=float, default=DEFAULT_POLL_S,
        help="seconds an idle worker waits between lease-claim attempts",
    )
    workers_parser.add_argument(
        "--no-attacks", action="store_true",
        help="do not register the builtin attack library as initial corpus entries",
    )
    workers_parser.add_argument(
        "--harvest-top-k", type=int, default=3,
        help="how many top traces per scenario to store in the corpus",
    )
    workers_parser.add_argument(
        "--no-telemetry", action="store_true",
        help="do not write metrics.jsonl / metrics.prom / run_manifest.json",
    )
    workers_parser.add_argument(
        "--kill-worker", type=int, default=None, help=argparse.SUPPRESS,
    )
    workers_parser.add_argument(
        "--kill-after-checkpoints", type=int, default=None, help=argparse.SUPPRESS,
    )

    compact_parser = subparsers.add_parser(
        "compact",
        help="fold a corpus's journal into one snapshot record (replay-equivalent)",
    )
    compact_parser.add_argument(
        "corpus", type=str, help="corpus directory holding journal.jsonl",
    )

    for subparser in (run_parser, status_parser, replay_parser, report_parser,
                      triage_parser, workers_parser, compact_parser,
                      serve_parser):
        add_console_flags(subparser)

    args = parser.parse_args(argv)
    console = Console.from_args(args)

    if args.command == "run":
        if args.harvest_top_k < 1:
            parser.error("--harvest-top-k must be at least 1")
        overrides = _spec_overrides(
            parser, args, ("backend", "workers", "job_timeout", "max_retries")
        )
        if args.no_telemetry and args.progress:
            parser.error("--progress needs telemetry; drop --no-telemetry")
        if args.resume and args.spec is not None:
            parser.error("--resume recovers the spec from the journal; drop --spec")
        if not args.resume and args.spec is None:
            parser.error("one of --spec or --resume is required")
        # Every usage error is raised above: constructing the telemetry
        # creates the corpus directory and metrics.jsonl.
        if args.no_telemetry:
            telemetry: object = False
        else:
            telemetry = CampaignTelemetry(
                args.corpus,
                progress_stream=sys.stderr if args.progress else None,
            )
        if args.resume:
            try:
                runner = CampaignRunner.resume(
                    args.corpus, progress=console.info, telemetry=telemetry
                )
            except ValueError as exc:
                parser.error(str(exc))
        else:
            with open(args.spec, "r", encoding="utf-8") as handle:
                spec = CampaignSpec.from_json(handle.read())
            runner = CampaignRunner(
                spec,
                CorpusStore(args.corpus),
                register_attacks=not args.no_attacks,
                harvest_top_k=args.harvest_top_k,
                progress=console.info,
                telemetry=telemetry,
            )
        vars(runner.spec).update(overrides)
        result = runner.run()
        console.info()
        console.result(format_campaign_report(result))
        report_path = write_campaign_report(result, args.corpus)
        console.info(f"\ncampaign report written to {report_path}")
        return 0

    if args.command == "workers":
        if args.workers < 0:
            parser.error("--workers must be >= 0")
        if args.harvest_top_k < 1:
            parser.error("--harvest-top-k must be at least 1")
        if (args.kill_worker is None) != (args.kill_after_checkpoints is None):
            parser.error("--kill-worker and --kill-after-checkpoints go together")
        overrides = _spec_overrides(parser, args, ("job_timeout", "max_retries"))
        with open(args.spec, "r", encoding="utf-8") as handle:
            spec = CampaignSpec.from_json(handle.read())
        vars(spec).update(overrides)
        result = run_fleet(
            spec,
            args.corpus,
            workers=args.workers,
            poll_s=args.poll,
            kill_worker=args.kill_worker,
            kill_after_checkpoints=args.kill_after_checkpoints,
            register_attacks=not args.no_attacks,
            harvest_top_k=args.harvest_top_k,
            telemetry=not args.no_telemetry,
            progress=console.info,
        )
        console.info()
        console.result(format_campaign_report(result))
        report_path = write_campaign_report(result, args.corpus)
        console.info(f"\ncampaign report written to {report_path}")
        return 0

    if args.command == "compact":
        journal_path = CampaignJournal.corpus_path(args.corpus)
        if not os.path.exists(journal_path):
            parser.error(f"no journal at {journal_path}")
        stats = CampaignJournal(journal_path).compact()
        if stats is None:
            console.result("journal is empty; nothing to compact")
            return 0
        console.result(
            f"compacted {stats['records_before']} records "
            f"({stats['bytes_before']} bytes) into 1 snapshot record "
            f"({stats['bytes_after']} bytes)"
            + (f"; skipped {stats['torn_records']} torn record(s)"
               if stats["torn_records"] else "")
        )
        return 0

    if args.command == "serve":
        return _run_serve(args, parser, console)

    if args.command == "status":
        metrics_path = os.path.join(args.corpus, METRICS_FILENAME)
        if not os.path.exists(metrics_path):
            parser.error(
                f"no campaign telemetry at {metrics_path} "
                "(run the campaign without --no-telemetry)"
            )
        if args.watch is not None:
            if args.watch <= 0:
                parser.error("--watch must be a positive number of seconds")
            if args.prometheus:
                parser.error("--watch cannot be combined with --prometheus")
            return _watch_status(args, console)
        if args.prometheus:
            snapshot = latest_snapshot(read_metrics(metrics_path))
            if snapshot is None:
                parser.error(f"no metrics snapshot in {metrics_path} yet")
            console.result(prometheus_text(snapshot), end="")
            return 0
        status = collect_status(args.corpus)
        if args.json:
            console.result(status_json(status))
        else:
            console.result(format_status(status))
        return 0

    # replay/report/triage read an existing corpus; creating an empty one on
    # a mistyped path would silently "succeed" with zero entries.
    if not CorpusReader.is_corpus(args.corpus):
        parser.error(f"no corpus at {args.corpus} (missing index.json)")

    if args.command == "triage":
        if args.workers is not None and args.workers < 1:
            parser.error("--workers must be at least 1")
        if args.limit is not None and args.limit < 1:
            parser.error("--limit must be at least 1")
        corpus = CorpusStore(args.corpus)
        backend = create_backend(args.backend, args.workers)
        try:
            result = triage_corpus(
                corpus,
                backend=backend,
                config=_triage_config(args),
                default_cca=args.default_cca,
                limit=args.limit,
                force=args.force,
                progress=console.info,
            )
        finally:
            backend.close()
        console.info()
        if result.rows:
            console.result(format_table([row.as_dict() for row in result.rows]))
        remaining = f", {result.remaining} left by --limit" if result.remaining else ""
        console.result(
            f"\ntriaged {len(result.rows)} entries "
            f"({result.skipped} already triaged{remaining}), "
            f"stored {result.stored} minimized variants; "
            f"{result.simulations} simulations (+{result.cache_hits} cache hits) "
            f"in {result.wall_time_s:.1f}s"
        )
        return 0

    # replay and report only read: a reader cannot disturb a campaign that
    # is still writing this directory.
    corpus = CorpusReader(args.corpus)
    if args.command == "replay":
        if args.workers is not None and args.workers < 1:
            parser.error("--workers must be at least 1")
        backend = create_backend(args.backend, args.workers)
        try:
            report = replay_corpus(corpus, args.cca, backend=backend, mode=args.mode)
        finally:
            backend.close()
        console.result(format_replay_report(report))
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                json.dump(report.to_dict(), handle, indent=1, sort_keys=True)
            console.info(f"\nreplay report written to {args.output}")
        return 0

    console.result(format_corpus_report(corpus, top=args.top))
    last_run = read_campaign_report(args.corpus)
    if last_run is not None:
        console.result(
            f"\nlast campaign: {last_run['spec']['name']!r} — "
            f"{len(last_run['scenarios'])} scenarios, "
            f"{last_run['total_evaluations']} simulations, "
            f"{last_run['wall_time_s']}s"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - module execution guard
    sys.exit(fuzz_main())
