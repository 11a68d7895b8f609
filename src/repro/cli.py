"""Command-line interface: regenerate figures and poke at the pipeline.

Usage (also ``python -m repro``)::

    repro fig4                     # candidate-count heatmap
    repro fig5 [--benchmark mcf] [--instructions 25] [--seed 2016]
    repro fig6 [--benchmark bzip2] [--instructions 25] [--seed 2016] [--jobs 4]
    repro fig7
    repro fig8 [--instructions 25] [--jobs 4]
    repro legality                 # Sec. III-B counts
    repro properties               # Sec. IV-B code properties
    repro resilience [--trials 5] [--jobs 4] [--json]
    repro resilience --mbu [--record BENCH_sweep.json]   # adaptive vs static
    repro sweep [--benchmark mcf] [--strategy filter-and-rank] [--jobs 4]
    repro pareto [--benchmark mcf] [--record BENCH_energy.json] [--json]
    repro synth mcf --length 1024 --out mcf.elf
    repro disasm mcf.elf [--limit 32]
    repro recover 0x8fbf0018 --bits 1,4 [--benchmark mcf] [--json]
    repro stats fig8 --instructions 5   # any command + profiling summary
    repro serve --port 9100 sweep --jobs 4   # any command + live /metrics
    repro serve-recovery --port 9200 --preload mcf   # online DUE recovery
    repro trace [TRACE_ID] [--url http://127.0.0.1:9200] [--limit 10]

Every command also accepts the observability flags (see
``docs/observability.md``): ``--profile`` prints metric and
stage-latency tables after the run, ``--trace`` prints just the
stage-latency table, ``--events PATH`` writes one JSON line per DUE
handled, and ``--log-json PATH`` (``-`` for stderr) emits structured
JSON logs.  ``repro stats <command> ...`` is shorthand for running
*command* with ``--profile``; ``repro serve <command> ...`` runs a
command while exposing live metrics over HTTP.

``--jobs N`` (on ``fig6``, ``fig8``, ``resilience``, and ``sweep``)
fans the work out over N processes with results bit-identical to the
serial run — see ``docs/performance.md``.  The same four commands take
``--serve PORT`` (scrape ``/metrics`` mid-run) and ``--progress`` (a
live stderr rate/ETA line).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from collections.abc import Sequence

from repro.analysis.experiments import (
    default_code,
    run_code_properties,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_isa_legality,
)
from repro.analysis.heatmap import render_table
from repro.analysis.resilience import ResilienceConfig, survival_study
from repro.analysis.sweep import DueSweep, RecoveryStrategy
from repro.core import RecoveryContext, SwdEcc
from repro.isa.disassembler import disassemble, render_instruction
from repro.isa.decoder import try_decode
from repro.obs import events as obs_events
from repro.obs import export as obs_export
from repro.obs import logging as obs_logging
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.progress import SweepProgress
from repro.obs.server import ObsServer
from repro.program.elf import read_elf, write_elf
from repro.program.stats import FrequencyTable
from repro.program.synth import synthesize_benchmark

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Software-Defined ECC (DSN 2016) reproduction toolkit",
    )
    # Observability flags shared by every subcommand.
    obs_flags = argparse.ArgumentParser(add_help=False)
    obs_flags.add_argument(
        "--profile", action="store_true",
        help="print metric, stage-latency, and DUE-event summaries "
        "after the command (implies --trace)",
    )
    obs_flags.add_argument(
        "--trace", action="store_true",
        help="collect tracing spans and print the stage-latency table",
    )
    obs_flags.add_argument(
        "--events", metavar="PATH", default=None,
        help="write per-DUE event records to PATH as JSON lines",
    )
    obs_flags.add_argument(
        "--log-json", metavar="PATH", default=None, dest="log_json",
        help="emit structured JSON logs to PATH ('-' for stderr)",
    )
    # Parallelism/liveness flags shared by the sweep-shaped subcommands.
    jobs_flag = argparse.ArgumentParser(add_help=False)
    jobs_flag.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan the sweep out over N worker processes "
        "(results are bit-identical to --jobs 1)",
    )
    jobs_flag.add_argument(
        "--serve", type=int, default=None, metavar="PORT",
        help="expose live metrics at http://127.0.0.1:PORT/metrics "
        "for the duration of the run (0 = ephemeral port)",
    )
    jobs_flag.add_argument(
        "--progress", action="store_true",
        help="render a live progress line (rate, ETA) on stderr",
    )

    subparsers = parser.add_subparsers(dest="command", required=True)

    for figure in ("fig4", "fig7", "legality", "properties"):
        subparsers.add_parser(
            figure, help=f"regenerate {figure}", parents=[obs_flags]
        )

    for figure, default_benchmark in (("fig5", "mcf"), ("fig6", "bzip2")):
        parents = [obs_flags] if figure == "fig5" else [obs_flags, jobs_flag]
        sub = subparsers.add_parser(
            figure, help=f"regenerate {figure}", parents=parents
        )
        sub.add_argument("--benchmark", default=default_benchmark)
        sub.add_argument("--instructions", type=int, default=25)
        sub.add_argument("--seed", type=int, default=2016,
                         help="benchmark synthesis seed (pins the image)")

    fig8 = subparsers.add_parser(
        "fig8", help="regenerate the headline Fig. 8",
        parents=[obs_flags, jobs_flag],
    )
    fig8.add_argument("--instructions", type=int, default=25)

    sweep = subparsers.add_parser(
        "sweep", help="exhaustive DUE sweep of one benchmark image",
        parents=[obs_flags, jobs_flag],
    )
    sweep.add_argument("--benchmark", default="mcf")
    sweep.add_argument(
        "--strategy",
        choices=[strategy.value for strategy in RecoveryStrategy],
        default=RecoveryStrategy.FILTER_AND_RANK.value,
    )
    sweep.add_argument("--instructions", type=int, default=25)
    sweep.add_argument("--length", type=int, default=2048,
                       help="synthetic image length in instructions")
    sweep.add_argument("--seed", type=int, default=2016,
                       help="benchmark synthesis seed (pins the image)")
    sweep.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON results")

    pareto = subparsers.add_parser(
        "pareto",
        help="recovery-rate vs joules-per-recovery vs latency frontier "
        "across codes and strategies",
        parents=[obs_flags, jobs_flag],
    )
    pareto.add_argument("--benchmark", default="mcf")
    pareto.add_argument("--instructions", type=int, default=25)
    pareto.add_argument("--length", type=int, default=2048,
                        help="synthetic image length in instructions")
    pareto.add_argument("--seed", type=int, default=2016,
                        help="benchmark synthesis seed (pins the image)")
    pareto.add_argument(
        "--codes", default=None, metavar="ID[,ID]",
        help="comma-separated code ids to compare "
        "(default: all SECDED-family codes)",
    )
    pareto.add_argument(
        "--strategies", default=None, metavar="S[,S]",
        help="comma-separated recovery strategies "
        "(default: all three paper strategies)",
    )
    pareto.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON results")
    pareto.add_argument("--csv", action="store_true",
                        help="emit the points as CSV on stdout")
    pareto.add_argument(
        "--record", metavar="PATH", default=None,
        help="append the measured points (with frontier membership) "
        "to a JSON trajectory file, e.g. BENCH_energy.json",
    )

    report = subparsers.add_parser(
        "report", help="regenerate every figure/table in one run",
        parents=[obs_flags],
    )
    report.add_argument("--instructions", type=int, default=15)

    resilience = subparsers.add_parser(
        "resilience", help="survival study: crash vs SWD-ECC, +/- scrubbing "
        "(or, with --mbu, adaptive code selection under adjacent bursts)",
        parents=[obs_flags, jobs_flag],
    )
    resilience.add_argument("--trials", type=int, default=5)
    resilience.add_argument("--epochs", type=int, default=None,
                            help="rounds per trial (default: 40, or 24 "
                                 "with --mbu)")
    resilience.add_argument("--mbu", action="store_true",
                            help="run the adjacent-MBU study instead: static "
                                 "SECDED vs static DAEC vs the adaptive "
                                 "selector, across burst profiles")
    resilience.add_argument("--seed", type=int, default=0,
                            help="base trial seed (--mbu only)")
    resilience.add_argument(
        "--record", metavar="PATH", default=None,
        help="append the --mbu study to a JSON trajectory file, "
        "e.g. BENCH_sweep.json",
    )
    resilience.add_argument("--json", action="store_true",
                            help="emit machine-readable JSON results")

    synth = subparsers.add_parser(
        "synth", help="generate a synthetic benchmark ELF", parents=[obs_flags]
    )
    synth.add_argument("benchmark")
    synth.add_argument("--length", type=int, default=1024)
    synth.add_argument("--seed", type=int, default=2016)
    synth.add_argument("--out", required=True)

    disasm = subparsers.add_parser(
        "disasm", help="disassemble an ELF .text", parents=[obs_flags]
    )
    disasm.add_argument("path")
    disasm.add_argument("--limit", type=int, default=None)

    recover = subparsers.add_parser(
        "recover", help="recover one instruction word from a 2-bit DUE",
        parents=[obs_flags],
    )
    recover.add_argument("word", help="32-bit instruction word, e.g. 0x8fbf0018")
    recover.add_argument(
        "--bits", required=True,
        help="two codeword bit positions to flip, e.g. 1,4 (0 = MSB)",
    )
    recover.add_argument("--benchmark", default="mcf",
                         help="benchmark supplying the frequency table")
    recover.add_argument("--seed", type=int, default=0)
    recover.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON results")

    stats = subparsers.add_parser(
        "stats",
        help="run any repro command with profiling enabled "
        "(shorthand for <command> --profile)",
    )
    stats.add_argument("--events", metavar="PATH", default=None,
                       help="also write per-DUE events to PATH")
    stats.add_argument("rest", nargs=argparse.REMAINDER,
                       help="the command to run, e.g. fig8 --instructions 5")

    serve = subparsers.add_parser(
        "serve",
        help="run any repro command while serving live metrics over "
        "HTTP (GET /metrics, /metrics.json, /events, /spans, /healthz)",
    )
    serve.add_argument("--port", type=int, default=9100,
                       help="TCP port to bind (0 = ephemeral)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: loopback only)")
    serve.add_argument("rest", nargs=argparse.REMAINDER,
                       help="the command to run, e.g. sweep --jobs 4")

    recovery = subparsers.add_parser(
        "serve-recovery",
        help="run the batched DUE-recovery service "
        "(POST /recover, /recover/batch; GET /metrics, /healthz)",
        parents=[obs_flags],
    )
    recovery.add_argument("--port", type=int, default=9200,
                          help="TCP port to bind (0 = ephemeral)")
    recovery.add_argument("--host", default="127.0.0.1",
                          help="bind address (default: loopback only)")
    recovery.add_argument("--max-batch", type=int, default=256,
                          metavar="WORDS",
                          help="words per micro-batch before it closes")
    recovery.add_argument("--linger-ms", type=float, default=2.0,
                          metavar="MS",
                          help="longest a batch waits for more requests")
    recovery.add_argument("--queue-limit", type=int, default=4096,
                          metavar="WORDS",
                          help="queued words before backpressure engages")
    recovery.add_argument("--workers", type=int, default=0, metavar="N",
                          help="pre-forked recovery shard processes "
                          "(0 = execute in-process)")
    recovery.add_argument("--policy", choices=["degrade", "reject"],
                          default="degrade",
                          help="overload behaviour: answer detect-only "
                          "(degrade) or 429 + Retry-After (reject)")
    recovery.add_argument("--timeout-ms", type=float, default=2000.0,
                          metavar="MS",
                          help="default per-request wait before degrading")
    recovery.add_argument("--cost", action="store_true",
                          help="attach per-request op-count and joule "
                          "attribution to /recover responses")
    recovery.add_argument("--preload", default=None, metavar="CTX[,CTX]",
                          help="contexts to build before serving, "
                          "e.g. mcf,bzip2")
    recovery.add_argument("--duration", type=float, default=None,
                          metavar="SECONDS",
                          help="serve for a fixed time then exit "
                          "(default: until interrupted)")

    trace_cmd = subparsers.add_parser(
        "trace",
        help="fetch the slowest request traces from a running recovery "
        "service (GET /traces) and print a latency waterfall",
    )
    trace_cmd.add_argument("trace_id", nargs="?", default=None,
                           help="trace id (or unique prefix) to render; "
                           "omit to list the slowest retained traces")
    trace_cmd.add_argument("--url", default="http://127.0.0.1:9200",
                           help="base URL of the service "
                           "(default: the serve-recovery default)")
    trace_cmd.add_argument("--limit", type=int, default=10, metavar="N",
                           help="how many slow traces to fetch")
    return parser


def _command_report(args: argparse.Namespace) -> int:
    """Regenerate every paper artifact at the requested scale."""
    from repro.analysis.experiments import default_images

    banner = "=" * 78
    images = default_images(length=2048)
    sections = [
        ("Sec. III-B | ISA legality", run_isa_legality().render()),
        ("Sec. IV-B | code properties", run_code_properties().render()),
        ("Fig. 4", run_fig4().render()),
        ("Fig. 5", run_fig5(
            image=next(i for i in images if i.name == "mcf"),
            num_instructions=args.instructions,
        ).render()),
        ("Fig. 6", run_fig6(
            image=next(i for i in images if i.name == "bzip2"),
            num_instructions=args.instructions,
        ).render()),
        ("Fig. 7", run_fig7(images).render()),
        ("Fig. 8", run_fig8(
            images=images, num_instructions=args.instructions
        ).render()),
    ]
    for title, body in sections:
        print(f"{banner}\n{title}\n{banner}\n{body}\n")
    return 0


def _progress_for(args: argparse.Namespace, unit: str = "patterns"):
    """A stderr-rendering progress tracker when --progress was given."""
    if getattr(args, "progress", False):
        return SweepProgress(stream=sys.stderr, unit=unit)
    return None


def _command_resilience(args: argparse.Namespace) -> int:
    if args.mbu:
        return _command_mbu(args)
    if args.record:
        print("resilience: --record applies to the --mbu study only",
              file=sys.stderr)
        return 2
    epochs = args.epochs if args.epochs is not None else 40
    code = default_code()
    image = synthesize_benchmark("mcf", length=512)
    progress = _progress_for(args, unit="trials")
    study = survival_study(
        code,
        image,
        trials=args.trials,
        base_config=ResilienceConfig(epochs=epochs),
        jobs=args.jobs,
        progress=progress,
    )
    if progress is not None:
        progress.finish()
    if args.json:
        print(obs_export.to_json({
            "command": "resilience",
            "trials": args.trials,
            "epochs": epochs,
            "configurations": study,
        }))
        return 0
    rows = [
        [
            label,
            f"{metrics['mean_survived_epochs']:.1f}/{epochs}",
            f"{metrics['completion_rate']:.0%}",
            f"{metrics['mean_correct_recoveries']:.1f}",
            f"{metrics['mean_silent_corruptions']:.1f}",
        ]
        for label, metrics in study.items()
    ]
    print(render_table(
        ["configuration", "survived epochs", "completed", "correct recoveries",
         "silent corruptions"],
        rows,
        title="Survival study (mcf image, BSC fault arrivals)",
    ))
    return 0


def _command_mbu(args: argparse.Namespace) -> int:
    """``repro resilience --mbu``: adaptive selection vs static codes."""
    from datetime import datetime, timezone

    from repro.analysis.mbu import MbuConfig, append_mbu_record, mbu_study

    epochs = args.epochs if args.epochs is not None else 24
    progress = _progress_for(args, unit="trials")
    study = mbu_study(
        trials=args.trials,
        base_config=MbuConfig(epochs=epochs, seed=args.seed),
        jobs=args.jobs,
        progress=progress,
    )
    if progress is not None:
        progress.finish()
    if args.record:
        depth = append_mbu_record(
            args.record,
            study,
            datetime.now(timezone.utc).isoformat(timespec="seconds"),
            meta={
                "trials": args.trials,
                "epochs": epochs,
                "seed": args.seed,
                "jobs": args.jobs,
            },
        )
        print(f"appended record #{depth} to {args.record}", file=sys.stderr)
    if args.json:
        print(obs_export.to_json({
            "command": "resilience",
            "mbu": True,
            "trials": args.trials,
            "epochs": epochs,
            "profiles": study,
        }))
        return 0
    rows = [
        [
            profile,
            arm,
            f"{metrics['recovery_rate']:.4f}",
            f"{metrics['mean_silent_corruptions']:.1f}",
            f"{metrics['mean_regions_upgraded']:.1f}",
            f"{metrics['joules_per_fault']:.3e}",
        ]
        for profile, arms in study.items()
        for arm, metrics in arms.items()
    ]
    print(render_table(
        ["burst profile", "arm", "recovery rate", "silent corruptions",
         "regions upgraded", "J/fault"],
        rows,
        title="Adjacent-MBU study (static SECDED vs static DAEC vs adaptive)",
    ))
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    code = default_code()
    image = synthesize_benchmark(
        args.benchmark, length=args.length, seed=args.seed
    )
    sweep = DueSweep(code, RecoveryStrategy(args.strategy), args.instructions)
    progress = _progress_for(args)
    result = sweep.run(image, jobs=args.jobs, progress=progress)
    if progress is not None:
        progress.finish()
    if args.json:
        print(obs_export.to_json({
            "command": "sweep",
            "benchmark": result.benchmark,
            "strategy": result.strategy.value,
            "instructions": result.num_instructions,
            "jobs": args.jobs,
            "mean_success_rate": result.mean_success_rate,
            "success_rates": result.success_series(),
        }))
        return 0
    rates = result.success_series()
    print(render_table(
        ["benchmark", "strategy", "instructions", "patterns",
         "mean recovery rate", "min", "max"],
        [[
            result.benchmark,
            result.strategy.value,
            result.num_instructions,
            len(result.outcomes),
            f"{result.mean_success_rate:.4f}",
            f"{min(rates):.3f}",
            f"{max(rates):.3f}",
        ]],
        title=f"Exhaustive 2-bit DUE sweep (jobs={args.jobs})",
    ))
    return 0


def _command_pareto(args: argparse.Namespace) -> int:
    """``repro pareto`` = sweep codes x strategies, print the frontier."""
    from datetime import datetime, timezone

    from repro.analysis.pareto import (
        PARETO_CODES,
        append_energy_record,
        pareto_front,
        sweep_pareto,
    )

    if args.codes is not None:
        unknown = [
            name for name in args.codes.split(",")
            if name and name not in PARETO_CODES
        ]
        if unknown:
            print(
                f"pareto: unknown code id(s) {', '.join(unknown)}; "
                f"choose from {', '.join(PARETO_CODES)}",
                file=sys.stderr,
            )
            return 2
        codes = {
            name: PARETO_CODES[name]
            for name in args.codes.split(",") if name
        }
    else:
        codes = None
    strategies = (
        [RecoveryStrategy(s) for s in args.strategies.split(",") if s]
        if args.strategies is not None else None
    )

    def announce(point) -> None:
        print(
            f"  measured {point.code} / {point.strategy}: "
            f"rate={point.recovery_rate:.4f} "
            f"J/recovery={point.joules_per_recovery:.3e}",
            file=sys.stderr,
        )

    points = sweep_pareto(
        codes=codes,
        strategies=strategies,
        benchmark=args.benchmark,
        num_instructions=args.instructions,
        length=args.length,
        seed=args.seed,
        jobs=args.jobs,
        on_point=announce,
    )
    frontier = pareto_front(points)
    frontier_keys = {(p.code, p.strategy) for p in frontier}
    if args.record:
        depth = append_energy_record(
            args.record,
            points,
            datetime.now(timezone.utc).isoformat(timespec="seconds"),
            meta={
                "benchmark": args.benchmark,
                "instructions": args.instructions,
                "length": args.length,
                "seed": args.seed,
                "jobs": args.jobs,
            },
        )
        print(f"appended record #{depth} to {args.record}", file=sys.stderr)
    if args.json:
        print(obs_export.to_json({
            "command": "pareto",
            "benchmark": args.benchmark,
            "instructions": args.instructions,
            "points": [point.as_dict() for point in points],
            "frontier": [point.as_dict() for point in frontier],
        }))
        return 0
    rows = [
        [
            point.code,
            point.strategy,
            f"{point.recovery_rate:.4f}",
            f"{point.joules_per_recovery:.3e}",
            f"{point.seconds_per_recovery:.3e}",
            "*" if (point.code, point.strategy) in frontier_keys else "",
        ]
        for point in sorted(
            points, key=lambda p: (p.joules_per_recovery, p.code)
        )
    ]
    if args.csv:
        print("code,strategy,recovery_rate,joules_per_recovery,"
              "seconds_per_recovery,on_frontier")
        for row in rows:
            print(",".join(
                [*row[:5], "1" if row[5] else "0"]
            ))
        return 0
    print(render_table(
        ["code", "strategy", "recovery rate", "J/recovery",
         "s/recovery", "frontier"],
        rows,
        title=f"Energy/recovery Pareto sweep ({args.benchmark}, "
        f"{args.instructions} instructions)",
    ))
    return 0


def _command_recover(args: argparse.Namespace) -> int:
    code = default_code()
    word = int(args.word, 0)
    positions = [int(p) for p in args.bits.split(",")]
    if len(positions) != 2:
        print("--bits needs exactly two comma-separated positions", file=sys.stderr)
        return 2
    instruction = try_decode(word)
    received = code.encode(word)
    for position in positions:
        received ^= 1 << (code.n - 1 - position)
    image = synthesize_benchmark(args.benchmark, length=2048)
    context = RecoveryContext.for_instructions(FrequencyTable.from_image(image))
    engine = SwdEcc(code, rng=random.Random(args.seed))
    result = engine.recover(received, context)
    # The CLI knows ground truth: annotate the DUE event the engine
    # just emitted so the events API reports the verdict too.
    obs_events.get_event_log().annotate_last(true_message=word)
    if args.json:
        print(obs_export.to_json({
            "command": "recover",
            "original": word,
            "original_text": (
                render_instruction(instruction) if instruction else None
            ),
            "flipped_bits": positions,
            "received": result.received,
            "num_candidates": result.num_candidates,
            "num_valid": result.num_valid,
            "filter_fell_back": result.filter_fell_back,
            "tied": result.tied,
            "chosen_message": result.chosen_message,
            "recovered": result.recovered(word),
            "valid_messages": [
                {
                    "word": message,
                    "text": (
                        render_instruction(decoded)
                        if (decoded := try_decode(message)) else None
                    ),
                    "chosen": message == result.chosen_message,
                }
                for message in result.valid_messages
            ],
        }))
        return 0
    print(f"original:  0x{word:08x}  "
          f"{render_instruction(instruction) if instruction else '<illegal>'}")
    print(f"candidates: {result.num_candidates}, "
          f"legal: {result.num_valid}"
          f"{' (filter fell back)' if result.filter_fell_back else ''}")
    for message in result.valid_messages:
        decoded = try_decode(message)
        text = render_instruction(decoded) if decoded else "<illegal>"
        marker = "  <== chosen" if message == result.chosen_message else ""
        print(f"  0x{message:08x}  {text}{marker}")
    print(f"recovered correctly: {result.recovered(word)}")
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    """``repro stats <command> ...`` = run the command with --profile."""
    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest or rest[0] == "stats":
        print("stats needs a command to profile, e.g. "
              "repro stats fig8 --instructions 5", file=sys.stderr)
        return 2
    forwarded = [*rest, "--profile"]
    if args.events:
        forwarded += ["--events", args.events]
    return main(forwarded)


def _command_serve(args: argparse.Namespace) -> int:
    """``repro serve <command> ...`` = run the command with a live
    observability endpoint for its duration (mirrors ``stats``)."""
    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest or rest[0] == "serve":
        print("serve needs a command to run, e.g. "
              "repro serve --port 9100 sweep --jobs 4", file=sys.stderr)
        return 2
    server = ObsServer(host=args.host, port=args.port)
    try:
        server.start()
    except OSError as error:
        print(f"serve: cannot bind {args.host}:{args.port}: {error}",
              file=sys.stderr)
        return 2
    # Everything after a successful bind runs under the teardown: a
    # failure anywhere (even printing the banner) must release the port.
    try:
        print(f"serving observability on {server.url}", file=sys.stderr)
        return main(rest)
    finally:
        server.stop()


def _command_serve_recovery(args: argparse.Namespace) -> int:
    """``repro serve-recovery`` = run the batched DUE-recovery service."""
    from repro.errors import ServiceError
    from repro.service import RecoveryService, ServiceCatalog

    catalog = ServiceCatalog()
    service = RecoveryService(
        catalog=catalog,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        linger_s=args.linger_ms / 1000.0,
        queue_limit=args.queue_limit,
        workers=args.workers,
        overload_policy=args.policy,
        default_timeout_s=args.timeout_ms / 1000.0,
        report_cost=args.cost,
    )
    # Preload before start: in sharded mode the forked workers inherit
    # the parent's warm context list, so contexts built here are warm
    # in every shard from the first request.
    contexts = [
        name for name in (args.preload or "").split(",") if name
    ]
    try:
        catalog.preload(contexts)
    except ServiceError as error:
        print(f"serve-recovery: {error}", file=sys.stderr)
        return 2
    try:
        service.start()
    except OSError as error:
        print(f"serve-recovery: cannot bind {args.host}:{args.port}: "
              f"{error}", file=sys.stderr)
        return 2
    try:
        print(f"recovery service on {service.url} "
              f"(policy={args.policy}, max_batch={args.max_batch}, "
              f"queue_limit={args.queue_limit}, "
              f"workers={args.workers})", file=sys.stderr)
        if args.duration is not None:
            time.sleep(args.duration)
        else:
            while True:
                time.sleep(3600.0)
    except KeyboardInterrupt:
        print("\nshutting down", file=sys.stderr)
    finally:
        service.stop()
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    """``repro trace`` = print request waterfalls from ``GET /traces``."""
    import urllib.error
    import urllib.request

    url = f"{args.url.rstrip('/')}/traces?limit={args.limit}"
    try:
        with urllib.request.urlopen(url, timeout=10.0) as response:
            payload = json.loads(response.read().decode("utf-8"))
    except (urllib.error.URLError, OSError, ValueError) as error:
        print(f"trace: cannot fetch {url}: {error}", file=sys.stderr)
        return 2
    if not payload.get("tracing"):
        print("trace: tracing is disabled on the service "
              "(start it with --trace or --profile)", file=sys.stderr)
        return 1
    traces = payload.get("traces", [])
    if args.trace_id is None:
        if not traces:
            print("no traces retained yet")
            return 0
        rows = [
            [t["trace_id"], f"{t['duration_ms']:.3f}", t["span_count"]]
            for t in traces
        ]
        print(render_table(
            ["trace id", "duration ms", "spans"], rows,
            title="slowest requests",
        ))
        return 0
    matches = [
        t for t in traces if t["trace_id"].startswith(args.trace_id)
    ]
    if not matches:
        print(f"trace: no retained trace matches {args.trace_id!r} "
              f"(fetched {len(traces)})", file=sys.stderr)
        return 1
    exact = [t for t in matches if t["trace_id"] == args.trace_id]
    if len(matches) > 1 and not exact:
        ids = ", ".join(t["trace_id"] for t in matches)
        print(f"trace: ambiguous prefix {args.trace_id!r}: {ids}",
              file=sys.stderr)
        return 1
    print(obs_export.render_waterfall((exact or matches)[0]))
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    command = args.command
    if command == "fig4":
        print(run_fig4().render())
    elif command == "fig5":
        image = synthesize_benchmark(args.benchmark, seed=args.seed)
        print(run_fig5(image=image, num_instructions=args.instructions).render())
    elif command == "fig6":
        image = synthesize_benchmark(args.benchmark, seed=args.seed)
        print(run_fig6(
            image=image, num_instructions=args.instructions, jobs=args.jobs,
            progress=_progress_for(args),
        ).render())
    elif command == "fig7":
        print(run_fig7().render())
    elif command == "fig8":
        print(run_fig8(
            num_instructions=args.instructions, jobs=args.jobs,
            progress=_progress_for(args),
        ).render())
    elif command == "legality":
        print(run_isa_legality().render())
    elif command == "properties":
        print(run_code_properties().render())
    elif command == "report":
        return _command_report(args)
    elif command == "resilience":
        return _command_resilience(args)
    elif command == "sweep":
        return _command_sweep(args)
    elif command == "pareto":
        return _command_pareto(args)
    elif command == "synth":
        image = synthesize_benchmark(args.benchmark, length=args.length,
                                     seed=args.seed)
        with open(args.out, "wb") as handle:
            handle.write(write_elf(image))
        print(f"wrote {args.out}: {len(image)} instructions, "
              f"base 0x{image.base_address:x}")
    elif command == "disasm":
        with open(args.path, "rb") as handle:
            image = read_elf(handle.read(), name=args.path)
        words = image.words[: args.limit] if args.limit else image.words
        print(disassemble(words, image.base_address))
    elif command == "recover":
        return _command_recover(args)
    elif command == "serve-recovery":
        return _command_serve_recovery(args)
    elif command == "trace":
        return _command_trace(args)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit status."""
    args = _build_parser().parse_args(argv)
    if args.command == "stats":
        return _command_stats(args)
    if args.command == "serve":
        return _command_serve(args)
    profile = getattr(args, "profile", False)
    want_trace = profile or getattr(args, "trace", False)
    events_path = getattr(args, "events", None)
    log_json = getattr(args, "log_json", None)
    serve_port = getattr(args, "serve", None)
    log_handler = (
        obs_logging.configure(log_json) if log_json is not None else None
    )
    server = None
    collector = None
    # One teardown covers everything that follows a successful bind:
    # the banner print, enabling tracing, and the command itself all
    # run inside the try, so the server thread and log handler are
    # released however the command exits (including on exceptions
    # raised before dispatch).
    try:
        if serve_port is not None:
            try:
                server = ObsServer(port=serve_port).start()
            except OSError as error:
                print(f"--serve: cannot bind port {serve_port}: {error}",
                      file=sys.stderr)
                return 2
            print(f"serving observability on {server.url}", file=sys.stderr)
        if want_trace:
            collector = obs_trace.enable_tracing()
        status = _dispatch(args)
    finally:
        if collector is not None:
            obs_trace.disable_tracing()
        if server is not None:
            server.stop()
        if log_handler is not None:
            obs_logging.unconfigure(log_handler)
    if profile:
        print()
        print(obs_export.render_metrics(
            obs_metrics.get_registry(), title="metrics"
        ))
        print()
        print(obs_export.render_spans(collector, title="stage latency"))
        print()
        print(obs_export.render_events_summary(obs_events.get_event_log()))
    elif collector is not None:
        # --trace alone: the process exits right after, so an unprinted
        # collector would be useless — show the stage-latency table.
        print()
        print(obs_export.render_spans(collector, title="stage latency"))
    if events_path is not None:
        try:
            written = obs_export.write_events(
                events_path, obs_events.get_event_log()
            )
        except OSError as error:
            print(f"--events: cannot write {events_path}: {error.strerror}",
                  file=sys.stderr)
            return 2
        print(f"wrote {written} DUE event(s) to {events_path}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
