"""Command-line interface.

Six entry points are installed with the package:

* ``repro-fuzz`` — run one genetic search against a CCA (a one-scenario
  campaign) and save the best traces found.
* ``repro-simulate`` — run a single simulation (fixed link, trace file, or a
  built-in attack trace) and print a metrics report.
* ``repro-trace`` — generate or inspect trace files.
* ``repro-campaign`` — orchestrate a whole matrix of fuzzing scenarios over
  a persistent attack corpus (``run``/``replay``/``report``/``triage``), and
  serve a read-only HTTP dashboard and query/replay API over one
  (``serve``).
* ``repro-triage`` — minimize, robustness-validate and differentially
  compare one attack trace (a file, a builtin attack, or a corpus entry).
* ``repro-coverage`` — inspect behavior-coverage archives
  (``map``/``diff``/``gaps``).

Every command is a pair: a ``with _command(handler, …)`` block in its entry
point declares the arguments, the handler runs them.  An option two commands
share is declared by one ``_add_*_options`` function; a numeric range is an
argparse ``type=``; what the library validates itself reaches the user
through :func:`_usage_errors`, never a restated check.  Either way a usage
error exits 2 with ``error: <reason>`` before any file or directory is
created, and so does an input the command cannot use: a file that cannot be
opened, a trace file that is not a trace, a torn or other-schema
``behavior_map.json``, or a journal with a corrupt record before its final
line or written by a worker fleet (the corpus is left as it was).  A flag
the input would contradict is rejected, not ignored (:func:`_input` for
trace inputs).

Module level imports only what a campaign run needs; every other subsystem
is imported by the handler that uses it, so a process loads what it runs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
import tempfile
import time
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Tuple

from .campaign.corpus import CorpusReader, CorpusStore, read_corpus_map
from .campaign.scheduler import HARVEST_TOP_K, CampaignResult, CampaignRunner
from .campaign.spec import CampaignSpec, GaBudget
from .core.fuzzer import MODES, FuzzConfig
from .coverage import (
    GUIDANCE_MODES,
    BehaviorArchive,
    diff_archives,
)
from .exec.backend import BACKENDS, create_backend
from .exec.workers import simulate_packet_trace
from .journal import CampaignJournal, FleetJournalError, JournalCorruption
from .journal.log import read_corpus_journal_view
from .netsim.simulation import SimulationConfig, SimulationTruncated, run_simulation
from .obs import (
    METRICS_FILENAME,
    CampaignTelemetry,
    Console,
    add_console_flags,
)
from .scoring.objectives import DEFAULT_OBJECTIVE, OBJECTIVES
from .tcp.cca import CCA_FACTORIES
from .traces.generator import LinkTraceGenerator, TrafficTraceGenerator
from .traces.trace import LinkTrace, PacketTrace

if TYPE_CHECKING:
    from .triage import TriageConfig

_Args = argparse.Namespace
_Parser = argparse.ArgumentParser

#: The simulation every unset flag leaves, whose defaults the help quotes.
_SIM = SimulationConfig()

#: ``repro-trace generate --mode``: each mode with a standalone generator, and
#: the one option that sizes it: its flag, the generator keyword it sets and
#: its default.  The other mode's option is rejected, not ignored.
_TRACE_GENERATORS = {
    "link": (LinkTraceGenerator, "--rate-mbps", "average_rate_mbps", _SIM.bottleneck_rate_mbps),
    "traffic": (TrafficTraceGenerator, "--max-packets", "max_packets", 1000),
}


# --------------------------------------------------------------------------- #
# Shared by several commands: range rules, option groups, inputs
# --------------------------------------------------------------------------- #


def _int_at_least(minimum: int, flag: str, maximum: Optional[int] = None) -> Callable[[str], int]:
    """argparse ``type=``: an integer no smaller than ``minimum`` (nor above ``maximum``)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum or (maximum is not None and value > maximum):
            bound = f"at least {minimum}" if maximum is None else f"in {minimum}..{maximum}"
            raise argparse.ArgumentTypeError(f"{flag} must be {bound}, got {value}")
        return value

    parse.__name__ = "int"  # what argparse calls the type in "invalid int value"
    return parse


def _positive_float(flag: str) -> Callable[[str], float]:
    """argparse ``type=``: a finite float greater than zero."""

    def parse(text: str) -> float:
        value = float(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"{flag} must be positive, got {value}")
        if value == math.inf:
            raise argparse.ArgumentTypeError(f"{flag} must be finite, got {value}")
        return value

    parse.__name__ = "float"
    return parse


@contextlib.contextmanager
def _usage_errors(parser: _Parser) -> Iterator[None]:
    """Report the library's own validation (``ValueError``) as a usage error.
    Wrap only the construction of a validated object: a ``ValueError`` out of
    a running search is a bug and keeps its traceback."""
    try:
        yield
    except ValueError as exc:
        parser.error(str(exc))


def _add_pool_options(parser: _Parser, backend: Optional[str] = "serial") -> None:
    """The evaluation pool; ``backend=None`` means "keep the campaign spec's"."""
    overriding = backend is None
    parser.add_argument(
        "--backend", choices=BACKENDS, default=backend,
        help="override the spec's evaluation backend" if overriding else
             "evaluation backend; 'process' gives real parallelism on multi-core machines",
    )
    parser.add_argument(
        "--workers", type=_int_at_least(1, "--workers"), default=None,
        help="override the spec's pool size" if overriding else
             "worker pool size for the process backend (default: one per usable CPU)",
    )


def _add_triage_options(parser: _Parser) -> None:
    """The triage pipeline's knobs, shared by both triage CLIs."""
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
    _add_pool_options(parser)


def _triage_config(args: _Args, parser: _Parser) -> TriageConfig:
    from .triage import DifferentialConfig, MinimizeConfig, RobustnessConfig, TriageConfig

    with _usage_errors(parser):
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


def _read_input(path: str, parser: _Parser) -> str:
    """An input file's text; one that cannot be opened is a usage error."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        parser.error(f"cannot read {path}: {exc.strerror or exc}")


def _read_trace(path: str, parser: _Parser) -> PacketTrace:
    """A trace file; one that is not a trace (bad JSON, fields or values) is
    a usage error."""
    with _usage_errors(parser):
        return PacketTrace.from_json(_read_input(path, parser))


def _builtin_attacks(duration: float) -> Dict[str, PacketTrace]:
    from .attacks import builtin_attack_traces

    return builtin_attack_traces(duration)


def _input(
    args: _Args, parser: _Parser, attack_duration: float, entry: Optional[PacketTrace] = None
) -> Tuple[Optional[PacketTrace], SimulationConfig]:
    """The trace a command runs and the simulation it runs under: the CLI's
    one rule for an input trace and the flags it would contradict, which
    are rejected, not ignored.  The trace is a corpus ``entry``'s, the
    ``--trace`` file's, or the builtin ``--attack`` built for ``--duration``
    (default ``attack_duration``); ``--attack none`` or no source is no trace.
    A file or an entry carries its own duration, so ``--duration`` applies
    only to an attack or to no trace.  A link trace is the bottleneck's
    service curve, so ``--rate-mbps`` conflicts with it and the rate is the
    trace's own average.  The trace type picks the simulator input, so an
    untyped trace cannot run, and an attack with no events at its duration
    would run a clean simulation, so it cannot either.  An unset flag is
    ``SimulationConfig``'s default."""
    trace, attack = entry, args.attack not in (None, "none")
    if args.trace:
        trace = _read_trace(args.trace, parser)
    elif attack:
        with _usage_errors(parser):
            duration = attack_duration if args.duration is None else args.duration
            trace = _builtin_attacks(duration)[args.attack]
        if not trace.timestamps:
            parser.error(f"--attack {args.attack} has no events in {duration:g} s; "
                         "give a longer --duration")
    if trace is not None and not attack and args.duration is not None:
        parser.error("--duration only applies to --attack or no trace "
                     "(a trace file or corpus entry carries its own duration)")
    if trace is not None and trace.mode is None:
        parser.error('trace has no concrete type (LinkTrace/TrafficTrace/LossTrace); '
                     're-export it with a "type" field')
    link = isinstance(trace, LinkTrace)
    if link and args.rate_mbps is not None:
        parser.error("--rate-mbps conflicts with a link trace (the trace itself is the "
                     "service curve and fixes the bandwidth)")
    settings = {
        "duration": args.duration if trace is None else trace.duration,
        "bottleneck_rate_mbps": trace.average_rate_mbps if link else args.rate_mbps,
        "queue_capacity": args.queue,
    }
    with _usage_errors(parser):
        return trace, SimulationConfig(**{k: v for k, v in settings.items() if v is not None})


def _existing_corpus(args: _Args, parser: _Parser) -> str:
    """``--corpus`` of the commands that read one: creating an empty corpus
    on a mistyped path would silently "succeed" with zero entries."""
    if not CorpusReader.is_corpus(args.corpus):
        parser.error(f"no corpus at {args.corpus} (no index.json or journal.jsonl)")
    return args.corpus


def _write_json(path: str, payload: Dict[str, object]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)


# --------------------------------------------------------------------------- #
# repro-fuzz
# --------------------------------------------------------------------------- #


def _fuzz(args: _Args, parser: _Parser, console: Console) -> None:
    """One search is a one-scenario campaign under the default network
    condition: ``repro-campaign run --no-attacks --harvest-top-k K`` on the
    matching spec (the two write byte-identical corpora), with ``--seed`` as
    the campaign seed and a temporary corpus unless ``--output-dir`` names
    one to keep."""
    with _usage_errors(parser):
        spec = CampaignSpec(
            name="repro-fuzz",
            ccas=[args.cca],
            modes=[args.mode],
            objectives=[args.objective],
            budget=GaBudget(
                population_size=args.population,
                generations=args.generations,
                islands=args.islands,
                duration=args.duration,
            ),
            seed=args.seed,
            backend=args.backend,
            workers=args.workers,
            guidance=args.guidance,
            seed_limit=0,  # unseeded, even over a populated --output-dir
        )
    corpus = (
        contextlib.nullcontext(args.output_dir) if args.output_dir
        else tempfile.TemporaryDirectory(prefix="repro-fuzz-")
    )
    with corpus as corpus_dir:
        archive = _corpus_archive(corpus_dir, parser)
        runner = CampaignRunner(
            spec,
            CorpusStore(corpus_dir),
            archive=archive,
            register_attacks=False,
            harvest_top_k=args.top,
            progress=console.info,
            telemetry=CampaignTelemetry(
                corpus_dir, progress_stream=None if console.quiet else sys.stderr
            ),
        )
        result = runner.run()
        _report_campaign(result, console)
        if args.output:
            best = runner.corpus.get(result.outcomes[0].best_fingerprint)
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(best.trace.to_json())
            console.info(f"\nbest trace written to {args.output}")


# --------------------------------------------------------------------------- #
# repro-simulate
# --------------------------------------------------------------------------- #


def _simulate(args: _Args, parser: _Parser, console: Console) -> None:
    from .analysis.metrics import compute_metrics
    from .analysis.reporting import ascii_chart, format_table

    if args.trace and args.attack != "none":
        parser.error("--trace and --attack are mutually exclusive; pick one input")

    factory = CCA_FACTORIES[args.cca]
    trace, config = _input(args, parser, attack_duration=_SIM.duration)
    try:
        if trace is not None:
            result = simulate_packet_trace(factory, config, trace)
        else:
            result = run_simulation(factory, config)
    except SimulationTruncated as exc:
        # A partial run's utilization is not a measurement; report, don't print it.
        console.error(f"error: {exc}")
        raise SystemExit(1) from None
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


# --------------------------------------------------------------------------- #
# repro-trace
# --------------------------------------------------------------------------- #


def _trace_generate(args: _Args, parser: _Parser, console: Console) -> None:
    for mode, (_, flag, keyword, _) in _TRACE_GENERATORS.items():
        if mode != args.mode and getattr(args, keyword) is not None:
            parser.error(f"{flag} only applies to --mode {mode}")
    build, _, keyword, default = _TRACE_GENERATORS[args.mode]
    size = default if getattr(args, keyword) is None else getattr(args, keyword)
    with _usage_errors(parser):
        generator = build(duration=args.duration, seed=args.seed, **{keyword: size})
    trace = generator.generate()
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(trace.to_json())
    console.info(
        f"wrote {type(trace).__name__} with {trace.packet_count} packets "
        f"({trace.average_rate_mbps:.2f} Mbps average) to {args.output}"
    )


def _trace_inspect(args: _Args, parser: _Parser, console: Console) -> None:
    from .analysis.reporting import ascii_chart

    trace = _read_trace(args.path, parser)
    console.result(f"type: {type(trace).__name__}")
    console.result(f"packets: {trace.packet_count}")
    console.result(f"duration: {trace.duration} s")
    console.result(f"average rate: {trace.average_rate_mbps:.3f} Mbps")
    console.result()
    console.result(
        ascii_chart(trace.windowed_rates_mbps(args.window), title="windowed rate", y_label="Mbps")
    )


# --------------------------------------------------------------------------- #
# repro-triage
# --------------------------------------------------------------------------- #


def _triage(args: _Args, parser: _Parser, console: Console) -> None:
    from .analysis.reporting import format_triage_report
    from .triage import triage_trace
    from .triage.pipeline import DEFAULT_CCA

    if args.output_trace and args.skip_minimize:
        parser.error("--output-trace needs the minimizer; drop --skip-minimize")
    if args.fingerprint and not args.corpus:
        parser.error("--fingerprint only makes sense with --corpus")
    # Flags that would be silently overridden are rejected, not ignored: a
    # corpus entry replays under its recorded network condition.
    if args.corpus and (args.rate_mbps is not None or args.queue is not None):
        parser.error("--rate-mbps/--queue conflict with --corpus "
                     "(the entry's recorded condition is used)")
    config = _triage_config(args, parser)

    cca = args.cca or DEFAULT_CCA
    objective = args.objective or DEFAULT_OBJECTIVE
    entry = None
    if args.corpus:
        if not args.fingerprint:
            parser.error("--corpus needs --fingerprint to pick an entry")
        store = CorpusReader(_existing_corpus(args, parser))
        matches = [fp for fp in store.fingerprints() if fp.startswith(args.fingerprint)]
        if len(matches) != 1:
            parser.error(
                f"fingerprint {args.fingerprint!r} matches {len(matches)} corpus entries"
            )
        entry = store.get(matches[0])
        cca = args.cca or entry.cca or DEFAULT_CCA
        objective = args.objective or entry.objective or DEFAULT_OBJECTIVE
    entry_trace = entry.trace if entry is not None else None
    trace, sim_config = _input(args, parser, attack_duration=6.0, entry=entry_trace)
    if entry is not None:
        # The entry's provenance wins over the generic sim flags: triage it
        # under the conditions (and against the CCA) it was discovered with.
        sim_config = entry.sim_config()
    with create_backend(args.backend, args.workers) as backend:
        report = triage_trace(
            trace,
            cca=cca,
            objective=objective,
            sim_config=sim_config,
            backend=backend,
            config=config,
        )

    console.result(format_triage_report(report.to_dict()))
    console.result(
        f"\n{report.simulations} simulations "
        f"(+{report.cache_hits} cache hits) in {report.wall_time_s:.1f}s"
    )
    if args.output:
        _write_json(args.output, report.to_dict())
        console.info(f"triage report written to {args.output}")
    if args.output_trace:
        with open(args.output_trace, "w", encoding="utf-8") as handle:
            handle.write(report.triaged_trace.to_json())
        console.info(f"minimized trace written to {args.output_trace}")


# --------------------------------------------------------------------------- #
# repro-coverage
# --------------------------------------------------------------------------- #


def _corpus_archive(corpus_dir: str, parser: _Parser) -> BehaviorArchive:
    """A corpus directory's behavior map (:func:`read_corpus_map`): what a
    fresh campaign over it starts from, and what ``/api/coverage`` shows."""
    with _usage_errors(parser):
        return BehaviorArchive.from_dict(read_corpus_map(corpus_dir, strict=True)[0])


def _load_archive(path: str, parser: _Parser) -> BehaviorArchive:
    """A behavior map file, or a corpus directory's map."""
    if os.path.isdir(path):
        if not any(
            os.path.exists(source)
            for source in (BehaviorArchive.corpus_path(path), CampaignJournal.corpus_path(path))
        ):
            parser.error(f"{path} holds neither a behavior map nor a campaign journal")
        return _corpus_archive(path, parser)
    if not os.path.exists(path):
        parser.error(f"no behavior map or corpus at {path}")
    with _usage_errors(parser):
        return BehaviorArchive.load(path)


def _coverage_map(args: _Args, parser: _Parser, console: Console) -> None:
    from .analysis.reporting import format_coverage_map

    archive = _load_archive(args.path, parser)
    if args.json:
        console.result(json.dumps(archive.to_dict(), indent=1, sort_keys=True))
    else:
        console.result(format_coverage_map(archive, top=args.top))


def _coverage_diff(args: _Args, parser: _Parser, console: Console) -> None:
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


def _coverage_gaps(args: _Args, parser: _Parser, console: Console) -> None:
    from .analysis.reporting import format_coverage_gaps

    console.result(format_coverage_gaps(_load_archive(args.path, parser)))


# --------------------------------------------------------------------------- #
# repro-campaign serve
# --------------------------------------------------------------------------- #


def _serve(args: _Args, parser: _Parser, console: Console) -> None:
    """Start a dashboard server (replays run on the evaluation pool) and block."""
    from .serve import DashboardServer

    if not os.path.isdir(args.corpus):
        parser.error(f"no corpus directory at {args.corpus}")
    with create_backend(args.backend, args.workers) as backend:
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


# --------------------------------------------------------------------------- #
# repro-campaign
# --------------------------------------------------------------------------- #


def _launch_spec(
    args: _Args, parser: _Parser, spec: Optional[CampaignSpec] = None
) -> CampaignSpec:
    """The spec ``run`` launches: ``--spec``'s file (or ``spec``, which a
    resume recovered from the journal) with the command line's pool and fault
    overrides applied through :class:`CampaignSpec`'s own validation (``None``
    = keep the spec's)."""
    overrides = {
        name: getattr(args, name)
        for name in ("backend", "workers", "job_timeout", "max_retries")
        if getattr(args, name) is not None
    }
    with _usage_errors(parser):
        if spec is None:
            spec = CampaignSpec.from_json(_read_input(args.spec, parser))
        return dataclasses.replace(spec, **overrides)


def _report_campaign(result: CampaignResult, console: Console) -> None:
    """Print the report.  The corpus's journal already records the outcome
    (``repro-campaign report`` reads it back), so nothing is written here."""
    from .campaign.report import format_campaign_report

    console.info()
    console.result(format_campaign_report(result))


def _campaign_run(args: _Args, parser: _Parser, console: Console) -> None:
    if args.no_telemetry and args.progress:
        parser.error("--progress needs telemetry; drop --no-telemetry")
    if args.resume and args.spec is not None:
        parser.error("--resume recovers the spec from the journal; drop --spec")
    if not args.resume and args.spec is None:
        parser.error("one of --spec or --resume is required")
    spec = None if args.resume else _launch_spec(args, parser)
    archive = None if args.resume else _corpus_archive(args.corpus, parser)
    telemetry = CampaignTelemetry(
        args.corpus,
        enabled=not args.no_telemetry,
        progress_stream=sys.stderr if args.progress else None,
    )
    if args.resume:
        with _usage_errors(parser):
            runner = CampaignRunner.resume(
                args.corpus, progress=console.info, telemetry=telemetry
            )
        runner.spec = _launch_spec(args, parser, runner.spec)
    else:
        runner = CampaignRunner(
            spec,
            CorpusStore(args.corpus),
            archive=archive,
            register_attacks=not args.no_attacks,
            harvest_top_k=args.harvest_top_k,
            progress=console.info,
            telemetry=telemetry,
        )
    _report_campaign(runner.run(), console)


def _campaign_compact(args: _Args, parser: _Parser, console: Console) -> None:
    journal_path = CampaignJournal.corpus_path(args.corpus)
    if not os.path.exists(journal_path):
        parser.error(f"no journal at {journal_path}")
    stats = CampaignJournal(journal_path).compact()
    if stats is None:
        console.result("journal is empty; nothing to compact")
        return
    console.result(
        f"compacted {stats['records_before']} records "
        f"({stats['bytes_before']} bytes) into 1 snapshot record "
        f"({stats['bytes_after']} bytes)"
        + (f"; skipped {stats['torn_records']} torn record(s)"
           if stats["torn_records"] else "")
    )


def _campaign_status(args: _Args, parser: _Parser, console: Console) -> None:
    """One render, or with ``--watch N`` one every N seconds until the campaign completes.

    Each tick tails only the bytes appended to ``metrics.jsonl`` since the
    last one (the same incremental reader the dashboard's ``/api/stream``
    endpoint uses), so watching a long campaign stays O(new records) per
    tick instead of re-reading the whole stream.
    """
    from .obs.status import StatusWatcher, format_status, status_json

    if args.watch is not None and args.prometheus:
        parser.error("--watch cannot be combined with --prometheus")
    # The status fold reads telemetry only.  Opening the corpus folds a
    # journal its files do not hold yet (a finished corpus costs a stat), so
    # one a worker fleet wrote is refused here as every reader refuses it.
    CorpusReader(args.corpus)
    metrics_path = os.path.join(args.corpus, METRICS_FILENAME)
    if not os.path.exists(metrics_path):
        parser.error(
            f"no campaign telemetry at {metrics_path} "
            "(run the campaign without --no-telemetry)"
        )
    watcher = StatusWatcher(args.corpus)
    if args.prometheus:
        text = watcher.prometheus()
        if text is None:
            parser.error(f"no metrics snapshot in {metrics_path} yet")
        console.result(text, end="")
        return
    clear = "\x1b[2J\x1b[H" if args.watch is not None and sys.stdout.isatty() else ""
    try:
        while True:
            status = watcher.poll()
            if args.json:
                console.result(status_json(status))
            else:
                console.result(clear + format_status(status))
            if args.watch is None or status.get("state") == "complete":
                return
            time.sleep(args.watch)
    except KeyboardInterrupt:
        return


def _campaign_replay(args: _Args, parser: _Parser, console: Console) -> None:
    from .campaign.replay import replay_corpus
    from .campaign.report import format_replay_report

    # replay and report only read: a reader cannot disturb a campaign that
    # is still writing this directory.
    corpus = CorpusReader(_existing_corpus(args, parser))
    with create_backend(args.backend, args.workers) as backend:
        report = replay_corpus(corpus, args.cca, backend=backend, mode=args.mode)
    console.result(format_replay_report(report))
    if args.output:
        _write_json(args.output, report.to_dict())
        console.info(f"\nreplay report written to {args.output}")


def _campaign_report(args: _Args, parser: _Parser, console: Console) -> None:
    from .campaign.report import format_corpus_report, format_last_campaign

    view = read_corpus_journal_view(_existing_corpus(args, parser))
    console.result(format_corpus_report(CorpusReader(args.corpus, lambda: view), top=args.top))
    last_campaign = format_last_campaign(view)
    if last_campaign is not None:
        console.result("\n" + last_campaign)


def _campaign_triage(args: _Args, parser: _Parser, console: Console) -> None:
    from .analysis.reporting import format_table
    from .triage import triage_corpus
    from .triage.pipeline import DEFAULT_CCA

    config = _triage_config(args, parser)
    corpus = CorpusStore(_existing_corpus(args, parser))
    with create_backend(args.backend, args.workers) as backend:
        result = triage_corpus(
            corpus,
            backend=backend,
            config=config,
            default_cca=args.default_cca or DEFAULT_CCA,
            limit=args.limit,
            force=args.force,
            progress=console.info,
        )
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


# --------------------------------------------------------------------------- #
# Entry points: build the parser, parse, run the command's handler
# --------------------------------------------------------------------------- #


@contextlib.contextmanager
def _command(
    run: Callable[[_Args, _Parser, Console], None], parser, name: Optional[str] = None, **kwargs
) -> Iterator[_Parser]:
    """Declare one command: its arguments (the ``with`` body), then the shared
    ``-q``/``-v`` flags, and ``run(args, parser, console)`` as its handler, handed
    this command's own parser.  ``parser`` is the program's parser or, for the
    subcommand ``name``, the ``add_subparsers()`` object to create it on."""
    if name is not None:
        parser = parser.add_parser(name, **kwargs)
    yield parser
    add_console_flags(parser)
    parser.set_defaults(handler=run, parser=parser)


def _dispatch(parser: _Parser, argv: Optional[List[str]]) -> int:
    """Run the chosen command; usage errors leave through ``parser.error`` (exit 2),
    and so does a journal with a corrupt interior record, which every writer
    refuses before it changes a byte, or one a worker fleet wrote.  A reader
    that stops reading (``| head``) ends the command with exit 1 and no
    traceback."""
    args = parser.parse_args(argv)
    try:
        args.handler(args, args.parser, Console.from_args(args))
    except (JournalCorruption, FleetJournalError) as exc:
        args.parser.error(str(exc))
    except BrokenPipeError:
        # Point stdout at devnull, or the interpreter's exit flush raises again.
        with contextlib.suppress(OSError, ValueError), open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    return 0


def fuzz_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-fuzz``."""
    parser = _Parser(
        prog="repro-fuzz",
        description="Genetic-algorithm stress testing of congestion control algorithms (CC-Fuzz).",
    )
    with _command(_fuzz, parser):
        parser.add_argument("--cca", choices=sorted(CCA_FACTORIES), default="bbr")
        parser.add_argument("--mode", choices=MODES, default="traffic")
        parser.add_argument("--objective", choices=sorted(OBJECTIVES), default=DEFAULT_OBJECTIVE)
        parser.add_argument("--population", type=int, default=16, help="traces per island")
        parser.add_argument("--islands", type=int, default=1)
        parser.add_argument("--generations", type=int, default=10)
        parser.add_argument("--duration", type=float, default=_SIM.duration,
                            help="seconds simulated per trace")
        parser.add_argument(
            "--seed", type=int, default=0,
            help="campaign seed; the GA seed derives from it and the scenario id, "
                 "as in repro-campaign",
        )
        parser.add_argument("--output", help="write the best trace as JSON")
        parser.add_argument(
            "--output-dir",
            help="keep the run's campaign corpus here (journal, telemetry, report, "
                 "behavior map; default: a temporary directory)",
        )
        parser.add_argument("--top", type=_int_at_least(1, "--top"), default=5,
                            help="how many best traces to store in the corpus")
        _add_pool_options(parser)
        parser.add_argument(
            "--guidance", choices=sorted(GUIDANCE_MODES), default=FuzzConfig.guidance,
            help="search guidance: 'score' is the paper's pure-fitness GA; "
                 "'novelty' rewards behaviorally diverse traces via the "
                 "MAP-Elites behavior archive",
        )
    return _dispatch(parser, argv)


def simulate_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-simulate``."""
    parser = _Parser(
        prog="repro-simulate",
        description="Run one CCA through the dumbbell bottleneck and report metrics.",
    )
    with _command(_simulate, parser):
        parser.add_argument("--cca", choices=sorted(CCA_FACTORIES), default="bbr")
        parser.add_argument("--duration", type=float,
                            help=f"default {_SIM.duration}; not with --trace")
        parser.add_argument("--rate-mbps", type=float,
                            help=f"default {_SIM.bottleneck_rate_mbps}; not with a link trace")
        parser.add_argument("--queue", type=int,
                            help=f"gateway queue in packets (default {_SIM.queue_capacity})")
        parser.add_argument("--trace", help="JSON trace file (link, traffic or loss)")
        parser.add_argument(
            "--attack", choices=["none", *sorted(_builtin_attacks(1.0))], default="none",
            help="use a built-in attack trace instead of a file",
        )
        parser.add_argument("--plot", action="store_true",
                            help="print an ASCII throughput chart")
    return _dispatch(parser, argv)


def trace_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-trace``."""
    parser = _Parser(prog="repro-trace", description="Generate or inspect CC-Fuzz trace files.")
    commands = parser.add_subparsers(dest="command", required=True)

    with _command(_trace_generate, commands, "generate", help="generate a random trace") as cmd:
        cmd.add_argument("--mode", choices=sorted(_TRACE_GENERATORS), default="link")
        cmd.add_argument("--duration", type=float, default=_SIM.duration)
        for mode, (_, flag, keyword, default) in _TRACE_GENERATORS.items():
            cmd.add_argument(flag, dest=keyword, type=type(default),
                             help=f"{mode} mode only (default {default})")
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--output", required=True)

    with _command(
        _trace_inspect, commands, "inspect", help="summarise an existing trace file"
    ) as cmd:
        cmd.add_argument("path")
        cmd.add_argument("--window", type=_positive_float("--window"), default=0.25)
    return _dispatch(parser, argv)


def triage_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-triage``."""
    parser = _Parser(
        prog="repro-triage",
        description=(
            "Post-fuzzing attack triage: minimize a trace while preserving its "
            "attack score, validate it across a perturbation matrix, and compare "
            "its effect across every registered CCA."
        ),
    )
    with _command(_triage, parser):
        source = parser.add_mutually_exclusive_group(required=True)
        source.add_argument("--trace", help="JSON trace file to triage")
        source.add_argument(
            "--attack", choices=sorted(_builtin_attacks(1.0)),
            help="triage a builtin attack trace instead of a file",
        )
        source.add_argument("--corpus", help="corpus directory; pick the entry with --fingerprint")
        parser.add_argument("--fingerprint",
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
                            help=f"bottleneck rate (default {_SIM.bottleneck_rate_mbps}; a "
                                 "--corpus entry replays under its recorded condition)")
        parser.add_argument("--queue", type=int, default=None,
                            help=f"queue capacity (default {_SIM.queue_capacity}; "
                                 "a --corpus entry replays under its recorded condition)")
        parser.add_argument("--output", help="write the full triage report as JSON")
        parser.add_argument("--output-trace", help="write the minimized trace as JSON")
        _add_triage_options(parser)
    return _dispatch(parser, argv)


def coverage_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-coverage``."""
    parser = _Parser(
        prog="repro-coverage",
        description=(
            "Inspect behavior-coverage archives: render the MAP-Elites behavior "
            "map of a fuzzing campaign, diff two maps, or list descriptor-space "
            "gaps worth steering the search toward."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    with _command(_coverage_map, commands, "map", help="render a behavior map") as cmd:
        cmd.add_argument("path", help="behavior map JSON, or a campaign corpus directory")
        cmd.add_argument("--top", type=_int_at_least(1, "--top"), default=10,
                         help="elite cells to list")
        cmd.add_argument("--json", action="store_true",
                         help="print the raw archive JSON instead of the ASCII map")

    with _command(_coverage_diff, commands, "diff", help="compare two behavior maps") as cmd:
        cmd.add_argument("path_a", help="baseline map or corpus dir")
        cmd.add_argument("path_b", help="comparison map or corpus dir")

    with _command(
        _coverage_gaps, commands, "gaps",
        help="list under-covered regions of the descriptor space",
    ) as cmd:
        cmd.add_argument("path", help="behavior map or corpus dir")
    return _dispatch(parser, argv)


def campaign_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-campaign``."""
    parser = _Parser(
        prog="repro-campaign",
        description=(
            "Orchestrate a matrix of fuzzing scenarios (CCAs x modes x objectives x "
            "network conditions) over a persistent, deduplicated attack corpus."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    with _command(
        _campaign_run, commands, "run", help="run a campaign spec and grow the corpus"
    ) as cmd:
        cmd.add_argument("--spec", help="campaign spec JSON file")
        cmd.add_argument("--corpus", required=True, help="corpus directory")
        cmd.add_argument(
            "--resume", action="store_true",
            help="resume an interrupted campaign from the corpus journal "
                 "(the spec is recovered from the journal; --spec is not allowed)",
        )
        _add_pool_options(cmd, backend=None)
        cmd.add_argument(
            "--job-timeout", type=_positive_float("--job-timeout"), default=None, metavar="SECONDS",
            help="override the spec's per-evaluation wall-clock limit "
                 "(process backend kills and replaces the overdue worker)",
        )
        cmd.add_argument(
            "--max-retries", type=_int_at_least(0, "--max-retries"), default=None,
            help="override the spec's retry budget for evaluations whose pool "
                 "worker died",
        )
        cmd.add_argument(
            "--no-attacks", action="store_true",
            help="do not register the builtin attack library as initial corpus entries",
        )
        cmd.add_argument(
            "--harvest-top-k", type=_int_at_least(1, "--harvest-top-k"), default=HARVEST_TOP_K,
            help="how many top traces per scenario to store in the corpus",
        )
        cmd.add_argument(
            "--no-telemetry", action="store_true",
            help="do not write metrics.jsonl / run_manifest.json "
                 "into the corpus directory (the journal still records the outcome "
                 "that 'report' shows)",
        )
        cmd.add_argument(
            "--progress", action="store_true",
            help="render a live one-line progress status on stderr while the campaign runs",
        )

    with _command(
        _campaign_status, commands, "status",
        help="show a campaign's progress from its telemetry (works on live "
             "and finished campaigns)",
    ) as cmd:
        cmd.add_argument("corpus", help="corpus directory holding metrics.jsonl")
        status_format = cmd.add_mutually_exclusive_group()
        status_format.add_argument("--json", action="store_true",
                                   help="emit the status as JSON")
        status_format.add_argument(
            "--prometheus", action="store_true",
            help="emit this run's latest metrics snapshot in Prometheus text "
                 "format (what the dashboard's /metrics serves)",
        )
        cmd.add_argument(
            "--watch", type=_positive_float("--watch"), default=None, metavar="SECONDS",
            help="re-render every SECONDS using incremental telemetry reads "
                 "(tails metrics.jsonl instead of re-reading it; Ctrl-C to stop)",
        )

    with _command(
        _serve, commands, "serve",
        help="serve the read-only HTTP dashboard and query/replay API over a "
             "corpus directory",
    ) as cmd:
        cmd.add_argument(
            "corpus", help="corpus directory to mount (read-only; safe on a live campaign)",
        )
        cmd.add_argument("--host", default="127.0.0.1", help="interface to bind")
        cmd.add_argument("--port", type=_int_at_least(0, "--port", 65535), default=8642,
                         help="port to bind (0 = pick a free port)")
        _add_pool_options(cmd)
        cmd.add_argument("--http-log", action="store_true",
                         help="log each HTTP request to stderr")

    with _command(
        _campaign_replay, commands, "replay",
        help="re-simulate the whole corpus against one CCA and report score deltas",
    ) as cmd:
        cmd.add_argument("--corpus", required=True)
        cmd.add_argument("--cca", choices=sorted(CCA_FACTORIES), required=True)
        cmd.add_argument("--mode", choices=MODES, default=None)
        _add_pool_options(cmd)
        cmd.add_argument("--output", help="write the replay report as JSON")

    with _command(_campaign_report, commands, "report", help="summarise a corpus directory") as cmd:
        cmd.add_argument("--corpus", required=True)
        cmd.add_argument("--top", type=_int_at_least(1, "--top"), default=10,
                         help="scored entries to list")

    with _command(
        _campaign_triage, commands, "triage",
        help="triage every untriaged corpus entry in place: store minimized "
             "variants with provenance links and robustness/differential verdicts",
    ) as cmd:
        cmd.add_argument("--corpus", required=True)
        cmd.add_argument(
            "--default-cca", choices=sorted(CCA_FACTORIES), default=None,
            help="CCA for entries without a recorded discovery CCA (builtins, imports); "
                 "default: the triage pipeline's",
        )
        cmd.add_argument("--limit", type=_int_at_least(1, "--limit"), default=None,
                         help="triage at most this many entries")
        cmd.add_argument(
            "--force", action="store_true",
            help="re-triage entries that already carry a verdict "
                 "(e.g. after a run with --skip-* engines)",
        )
        _add_triage_options(cmd)

    with _command(
        _campaign_compact, commands, "compact",
        help="fold a corpus's journal into one snapshot record (replay-equivalent)",
    ) as cmd:
        cmd.add_argument("corpus", help="corpus directory holding journal.jsonl")
    return _dispatch(parser, argv)


if __name__ == "__main__":  # pragma: no cover - module execution guard
    sys.exit(fuzz_main())
