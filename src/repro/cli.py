"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    List the reproducible experiments (figures/tables).
``run <exp-id> [...]``
    Run one or more experiments and print their rendered results.
    ``--metrics`` additionally collects observability counters
    (``repro.obs``) and prints them after the results; with it,
    ``-o FILE`` also writes the counter snapshot as canonical JSON.
    Every evaluation runs in process on the vector backend: the cluster
    backend and the on-disk cache tier remain library paths only
    (``SweepRunner(backend="cluster")``,
    ``EvaluationService(disk_cache=...)``), pending the benchmark change
    that retires them.
``trace <exp-id>``
    Run one experiment under a :class:`~repro.obs.TraceRecorder` and
    emit the span/event stream as JSON Lines (stdout or ``-o FILE``).
``report``
    Print the full paper-vs-measured markdown report (EXPERIMENTS.md body).
``bandwidth``
    Query the bandwidth model for one configuration.
``ssb``
    Execute the Star Schema Benchmark reproduction (Fig. 14 + Table 1).
``verify``
    Check the 12 insights and 7 best practices against the model.
``advise``
    Run the placement advisor for a workload profile.
``hybrid``
    Plan a hybrid PMEM-DRAM placement (the paper's future work, §9).
``lint``
    Run simlint, the repo's static-analysis pass (``repro.analysis``).
``bench``
    Run the ``benchmarks/`` suite (or a subset) and emit a canonical
    ``BENCH_<timestamp>.json`` snapshot for the performance trajectory.
``serve``
    Run the bandwidth server (``repro.serve``): a TCP front door that
    coalesces concurrent evaluation requests into columnar batches.
``request``
    Send one JSON request frame to a running server and print the
    response.

A command given bad input (a typed :class:`~repro.errors.ReproError`)
prints ``<command>: <message>`` on stderr and exits 2. An ``-o FILE``
of ``run``, ``trace`` or ``bench`` is opened for writing before anything
runs (``bench -o`` also takes a writable directory), so an unwritable
path is such bad input: ``<command>: cannot write FILE: <reason>``. So
is a ``serve`` address it cannot listen on (a busy port, an unresolvable
host): ``serve: cannot listen on HOST:PORT: <reason>``.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from collections.abc import Callable, Sequence
from typing import TextIO

from repro.errors import ConfigurationError, ReproError
from repro.memsim import (
    DirectoryState,
    Layout,
    MediaKind,
    Op,
    Pattern,
    PinningPolicy,
    StreamSpec,
    paper_config,
)
from repro.units import GIB


def _int_in(low: int, high: int | None = None) -> Callable[[str], int]:
    """An argparse ``type=`` accepting integers in ``[low, high]``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            bound = f">= {low}" if high is None else f"in {low}..{high}"
            # argparse's documented contract for type= callables: it becomes
            # a usage error with exit code 2.
            raise argparse.ArgumentTypeError(f"must be {bound}")  # simlint: ignore[foreign-raise] -- argparse type= contract
        return value

    parse.__name__ = "int"  # names the type in argparse's "invalid int value"
    return parse


def _open_output(path: str) -> TextIO:
    """Open an ``-o`` target for writing, as a shell redirect would.

    Called before any experiment runs, so an unwritable path costs
    nothing and fails as bad input rather than after the run.
    """
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc.strerror}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Maximizing Persistent Memory Bandwidth "
        "Utilization for OLAP Workloads' (SIGMOD 2021)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible experiments")

    run = sub.add_parser("run", help="run experiments by id")
    run.add_argument("experiments", nargs="+", metavar="EXP",
                     help="experiment ids, e.g. fig7 table1")
    run.add_argument("--metrics", action="store_true",
                     help="collect observability counters during the run and "
                          "print a report after the results")
    run.add_argument("-o", "--output", metavar="FILE", default=None,
                     help="with --metrics: also write the counter snapshot "
                          "as canonical JSON to FILE")

    trace = sub.add_parser(
        "trace", help="run one experiment and emit its trace as JSON Lines"
    )
    trace.add_argument("experiment", metavar="EXP",
                       help="experiment id, e.g. fig3")
    trace.add_argument("-o", "--output", metavar="FILE", default=None,
                       help="write the JSONL trace to FILE instead of stdout")
    trace.add_argument("--timestamps", action="store_true",
                       help="stamp every record with a wall-clock 't' field "
                            "(seconds; makes the trace nondeterministic)")

    sub.add_parser("report", help="print the paper-vs-measured report")

    bandwidth = sub.add_parser("bandwidth", help="query the bandwidth model")
    bandwidth.add_argument("--op", choices=("read", "write"), default="read")
    bandwidth.add_argument("--threads", type=int, default=18)
    bandwidth.add_argument("--size", type=int, default=4096,
                           help="access size in bytes")
    bandwidth.add_argument("--media", choices=("pmem", "dram"), default="pmem")
    bandwidth.add_argument("--layout", choices=("grouped", "individual"),
                           default="individual")
    bandwidth.add_argument("--pattern", choices=("sequential", "random"),
                           default="sequential")
    bandwidth.add_argument("--pinning", choices=("none", "numa_region", "cores"),
                           default="cores")
    bandwidth.add_argument("--far", action="store_true",
                           help="access the other socket's memory")
    bandwidth.add_argument("--cold", action="store_true",
                           help="far access with a cold coherence directory")

    ssb = sub.add_parser("ssb", help="run the SSB reproduction")
    ssb.add_argument("--sf", type=float, default=0.05,
                     help="measured scale factor for the real execution")

    sub.add_parser("verify", help="verify the 12 insights and 7 practices")

    advise = sub.add_parser("advise", help="run the placement advisor")
    advise.add_argument("--profile",
                        choices=("scan_heavy", "join_heavy", "ingest", "mixed"),
                        default="scan_heavy")
    advise.add_argument("--threads", type=int, default=36,
                        help="threads available per socket")
    advise.add_argument("--sockets", type=int, default=2)
    advise.add_argument("--no-system-control", action="store_true")
    advise.add_argument("--needs-filesystem", action="store_true")

    hybrid = sub.add_parser(
        "hybrid", help="plan a hybrid PMEM-DRAM placement (future work, §9)"
    )
    hybrid.add_argument("--dram-budget-gib", type=float, default=48.0)
    hybrid.add_argument("--sf", type=float, default=0.02,
                        help="measured scale factor for the traffic run")

    lint = sub.add_parser(
        "lint", add_help=False,
        help="run simlint, the repo's static-analysis pass",
    )
    lint.add_argument("lint_args", nargs=argparse.REMAINDER,
                      help="arguments forwarded to python -m repro.analysis")

    bench = sub.add_parser(
        "bench", help="run benchmarks and emit a BENCH_<timestamp>.json snapshot"
    )
    bench.add_argument("benches", nargs="*", metavar="BENCH",
                       help="bench names or substrings, e.g. fig03 "
                            "hashindex (default: the whole suite)")
    bench.add_argument("--smoke", action="store_true",
                       help="run the pinned fast subset with one round and "
                            "no warmup (seconds, not minutes)")
    bench.add_argument("--no-warmup", action="store_true",
                       help="skip pytest-benchmark's warmup phase")
    bench.add_argument("--rounds", type=_int_in(1), default=3, metavar="N",
                       help="minimum timing rounds per bench (default 3)")
    bench.add_argument("-o", "--output", metavar="PATH", default=None,
                       help="output file or directory (default: "
                            "./BENCH_<timestamp>.json)")

    serve = sub.add_parser(
        "serve", help="run the coalescing bandwidth server over TCP"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=_int_in(0, 65535), default=0,
                       help="TCP port (default 0: pick an ephemeral port "
                            "and print it)")
    serve.add_argument("--window-ms", type=float, default=2.0,
                       help="gather window in milliseconds (default 2.0)")
    serve.add_argument("--max-batch", type=_int_in(1), default=64,
                       metavar="N",
                       help="most points coalesced into one batch")
    serve.add_argument("--max-queue", type=_int_in(1), default=256,
                       metavar="N",
                       help="admission-control queue bound; beyond it, "
                            "requests are shed with a retry-after hint")

    request = sub.add_parser(
        "request", help="send one request frame to a running server"
    )
    request.add_argument("--host", default="127.0.0.1")
    request.add_argument("--port", type=_int_in(1, 65535), required=True)
    request.add_argument("frame", nargs="?", default=None,
                         help="request frame as a JSON object (default: "
                              "read one line from stdin)")
    return parser


def _cmd_list() -> int:
    from repro.experiments.registry import REGISTRY

    for experiment in REGISTRY.values():
        print(f"{experiment.exp_id:<14} §{experiment.paper_section:<8} {experiment.title}")
    return 0


def _cmd_run(
    experiment_ids: Sequence[str],
    metrics: bool = False,
    output: str | None = None,
) -> int:
    from repro.experiments.registry import get_experiment, run_experiment
    from repro.obs import CountersRecorder, using_recorder
    from repro.sweep import default_service

    # Every id, and the output path, is checked before any experiment runs.
    for exp_id in experiment_ids:
        get_experiment(exp_id)
    sink = _open_output(output) if output is not None else contextlib.nullcontext()
    recorder = CountersRecorder() if metrics else None
    scope = (
        using_recorder(recorder) if recorder is not None
        else contextlib.nullcontext()
    )
    # fig14 and table1 share one runner: one generated database, and
    # each engine configuration executed once.
    ssb_runner = None
    with sink as handle:
        with scope:
            for exp_id in experiment_ids:
                kwargs: dict[str, object] = {}
                if exp_id in ("fig14", "table1"):
                    if ssb_runner is None:
                        from repro.ssb.runner import SsbRunner

                        ssb_runner = SsbRunner()
                    kwargs["runner"] = ssb_runner
                print(run_experiment(exp_id, **kwargs).render())
                print()
        print(default_service().stats.describe())
        if recorder is not None:
            from repro.obs.report import render_recorder

            print()
            print(render_recorder(recorder))
            if handle is not None:
                from repro.obs.golden import canonical_json

                handle.write(canonical_json(recorder.snapshot()))
                print(f"wrote metrics snapshot to {output}")
    return 0


def _cmd_trace(experiment_id: str, output: str | None, timestamps: bool) -> int:
    import time

    from repro.experiments.registry import get_experiment, run_experiment
    from repro.obs import TraceRecorder, using_recorder

    get_experiment(experiment_id)
    sink = (
        _open_output(output) if output is not None
        else contextlib.nullcontext(sys.stdout)
    )
    recorder = TraceRecorder(
        clock=time.perf_counter if timestamps else None,
        record_observations=timestamps,
    )
    with sink as handle:
        with using_recorder(recorder):
            with recorder.span("experiment", exp_id=experiment_id):
                run_experiment(experiment_id)
        handle.write(recorder.export_jsonl())
    if output is not None:
        print(f"wrote {len(recorder)} trace records to {output}")
    return 0


def _cmd_report() -> int:
    from repro.experiments.report import generate_report

    print(generate_report())
    return 0


def _cmd_bandwidth(args: argparse.Namespace) -> int:
    from repro.sweep import stream_gbps

    config = paper_config()
    media = MediaKind.PMEM if args.media == "pmem" else MediaKind.DRAM
    if args.pattern == "random":
        spec = StreamSpec(
            op=Op(args.op), threads=args.threads, access_size=args.size,
            media=media, pattern=Pattern.RANDOM, region_bytes=2 * GIB,
        )
    else:
        spec = StreamSpec(
            op=Op(args.op), threads=args.threads, access_size=args.size,
            media=media,
            layout=Layout.GROUPED if args.layout == "grouped" else Layout.INDIVIDUAL,
            pinning=PinningPolicy(args.pinning),
            target_socket=1 if args.far else 0,
        )
    # Only far reads observe the coherence directory (§3.4).
    directory = (
        DirectoryState.cold() if args.cold else DirectoryState.warm(config.topology)
    )
    gbps = stream_gbps(config, (spec,), directory)
    locality = "far" if args.far else "near"
    print(
        f"{args.op} {args.pattern} {args.size}B x {args.threads} threads "
        f"({args.layout}, {args.pinning}, {locality} {args.media}): "
        f"{gbps:.2f} GB/s"
    )
    return 0


def _cmd_ssb(args: argparse.Namespace) -> int:
    from repro.ssb.runner import SsbRunner, average_slowdown

    runner = SsbRunner(measured_sf=args.sf)
    handcrafted = runner.figure14b()
    hyrise = runner.figure14a()
    print("Figure 14b (handcrafted, sf 100):")
    for name, seconds in handcrafted["pmem"].seconds.items():
        dram = handcrafted["dram"].breakdowns[name].seconds
        print(f"  {name:<6} pmem={seconds:7.2f}s dram={dram:7.2f}s")
    print(
        f"average slowdown: "
        f"{average_slowdown(handcrafted['pmem'], handcrafted['dram']):.2f}x "
        "(paper 1.66x)"
    )
    print(
        f"Hyrise average slowdown: "
        f"{average_slowdown(hyrise['pmem'], hyrise['dram']):.2f}x (paper 5.3x)"
    )
    print("Table 1 (Q2.1):")
    for media, ladder in runner.table1().items():
        cells = "  ".join(f"{step}={seconds:.1f}s" for step, seconds in ladder.items())
        print(f"  {media}: {cells}")
    print(f"Q2.1 on SSD: {runner.q21_on_ssd():.1f}s (paper 22.8s)")
    return 0


def _cmd_verify() -> int:
    from repro.core import practices_report, verify_all

    insights = verify_all()
    failed = [number for number, ok in insights.items() if not ok]
    print(practices_report())
    print()
    if failed:
        print(f"FAILED insights: {failed}")
        return 1
    print("all 12 insights and 7 best practices hold")
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.core import AccessProfile, PlacementAdvisor, WorkloadIntent

    intent = WorkloadIntent(
        profile=AccessProfile(args.profile),
        threads_per_socket=args.threads,
        sockets=args.sockets,
        full_system_control=not args.no_system_control,
        needs_filesystem=args.needs_filesystem,
    )
    print(PlacementAdvisor().recommend(intent).describe())
    return 0


def _cmd_hybrid(args: argparse.Namespace) -> int:
    from repro.core.hybrid import HybridPlanner, ssb_structures
    from repro.ssb.runner import SsbRunner
    from repro.ssb.storage import (
        HANDCRAFTED_DRAM,
        HANDCRAFTED_PMEM,
        HYBRID_PMEM_DRAM,
    )
    from repro.units import GIB

    runner = SsbRunner(measured_sf=args.sf)
    structures = ssb_structures(runner, target_sf=100.0)
    plan = HybridPlanner().plan(structures, dram_budget=int(args.dram_budget_gib * GIB))
    print(plan.describe())
    print()
    for label, profile in (
        ("PMEM-only", HANDCRAFTED_PMEM),
        ("hybrid", HYBRID_PMEM_DRAM),
        ("DRAM-only", HANDCRAFTED_DRAM),
    ):
        run = runner.run(profile, target_sf=100)
        print(f"  {label:<10} avg query {run.average_seconds:6.2f}s")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.bench import payload_json, run_benchmarks, write_payload
    from repro.errors import BenchError

    # The target is checked before the suite runs. A directory (one
    # named with a trailing separator is made) gets the snapshot's
    # timestamped name only afterwards, so it must be writable now; a
    # file is opened now, its parent directories made.
    output = args.output if args.output is not None else "."
    target = Path(output)
    try:
        if output.endswith(os.sep):
            target.mkdir(parents=True, exist_ok=True)
        elif not target.parent.exists():
            target.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {output}: {exc.strerror}") from None
    if target.is_dir():
        if not os.access(target, os.W_OK | os.X_OK):
            raise ConfigurationError(f"cannot write {output}: Permission denied")
        sink = contextlib.nullcontext()
    else:
        sink = _open_output(output)
    with sink as handle:
        try:
            payload = run_benchmarks(
                args.benches or None,
                smoke=args.smoke,
                warmup=not args.no_warmup,
                rounds=args.rounds,
            )
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        if handle is None:
            path = write_payload(payload, str(target))
        else:
            handle.write(payload_json(payload))
            path = target
    benches = payload["benchmarks"]
    print(f"wrote {len(benches)} benchmark results to {path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import BandwidthServer, ServeConfig
    from repro.sweep import EvaluationService
    from repro.units import MS

    service = EvaluationService()
    config = ServeConfig(
        gather_window_seconds=args.window_ms * MS,
        max_batch_points=args.max_batch,
        max_queue_depth=args.max_queue,
    )

    async def run() -> int:
        server = BandwidthServer(service, config=config)
        try:
            host, port = await server.serve_tcp(args.host, args.port)
        except OSError as exc:  # a busy port or an unresolvable host
            raise ConfigurationError(
                f"cannot listen on {args.host}:{args.port}: {exc.strerror or exc}"
            ) from None
        print(f"serving repro.serve/1 on {host}:{port} "
              f"(window {args.window_ms}ms, batch<={args.max_batch}, "
              f"queue<={args.max_queue})", flush=True)
        try:
            while True:
                await asyncio.sleep(3600)
        except asyncio.CancelledError:
            return 0
        finally:
            await server.close()
            print(server.stats.describe())

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def _cmd_request(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.errors import ServeError
    from repro.serve.client import request_once

    text = args.frame if args.frame is not None else sys.stdin.readline()
    try:
        frame = json.loads(text)
    except ValueError as exc:
        print(f"request: frame is not JSON: {exc}", file=sys.stderr)
        return 2
    try:
        response = asyncio.run(request_once(args.host, args.port, frame))
    except ServeError as exc:
        print(f"request: {exc}", file=sys.stderr)
        return 1
    try:
        print(json.dumps(response, indent=2, sort_keys=True))
    except BrokenPipeError:
        # The consumer (``| head``, ``| jq``) closed stdout early; point
        # stdout at devnull so the interpreter's exit flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if response.get("ok") else 1


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["lint"]:
        # Dispatched before parsing: argparse's REMAINDER cannot forward
        # option-like tokens (e.g. ``repro lint --json``) from a subparser.
        from repro.analysis.cli import main as lint_main

        return lint_main(argv[1:])
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and args.output is not None and not args.metrics:
        parser.error("run -o/--output requires --metrics")
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args.experiments, metrics=args.metrics, output=args.output)
    if args.command == "trace":
        return _cmd_trace(args.experiment, args.output, args.timestamps)
    if args.command == "report":
        return _cmd_report()
    if args.command == "bandwidth":
        return _cmd_bandwidth(args)
    if args.command == "ssb":
        return _cmd_ssb(args)
    if args.command == "verify":
        return _cmd_verify()
    if args.command == "advise":
        return _cmd_advise(args)
    if args.command == "hybrid":
        return _cmd_hybrid(args)
    if args.command == "lint":
        from repro.analysis.cli import main as lint_main

        return lint_main(args.lint_args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "request":
        return _cmd_request(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
