"""Benchmark of the reproduction: end-to-end timing and a traced layer profile.

Run from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

One run sets up its inputs ``SETUP_REPEATS`` times (``setup_s`` is the
import time plus the median set-up), computes the oracle its outputs are
checked against, then repeats the workload's iteration until
``--seconds`` have passed, with ``gc.collect()`` between iterations and
outside the timer. It prints every metric by name and unit, then, as the
last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``. With ``--trace 1`` the first half of the time runs
untraced, the second half with span wrappers installed (see
``tracer.py``), and one more iteration with a counters recorder; the
metrics are the per-layer ones, and the spans are written to
``.perfbench/traces/``. ``--workload all`` runs
each workload in a fresh process, one after another.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from pathlib import Path

import tracer as tracing

REPO = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "paper_log_error": "ln-ratio"}
WORKLOAD_NAMES = ("reproduce", "sweep", "disk_sweep", "cluster")


def measure(workload, seconds: float, tally: list[int], span: Callable = tracing.nullspan,
            tracer: tracing.Tracer | None = None) -> tuple[list[float], int]:
    """Run iterations until ``seconds`` pass (at least one).

    Adds each iteration's ``(attempted, failed)`` operations to ``tally``;
    returns the wall times and the bytes the disk cache grew by in all.
    """
    walls: list[float] = []
    disk = 0
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        workload.prepare()
        gc.collect()
        if tracer is not None:
            tracer.iteration += 1
        with span(tracing.ROOT):
            start = time.perf_counter()
            output = workload.iterate(span)
            walls.append(time.perf_counter() - start)
        attempted, failed = workload.check(output)
        tally[0] += attempted
        tally[1] += failed
        disk += workload.disk_bytes()
    return walls, disk


def run_workload(workload, seconds: float, trace: bool, import_s: float) -> dict:
    """Set up, measure and check one workload; the result object."""
    setups = []
    tally = [0, 0]
    info: dict[str, object] = {"setup_samples_s": setups, "import_s": import_s}
    try:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        workload.prepare_oracle()
        if not trace:
            walls, _ = measure(workload, seconds, tally)
            info["wall_samples_s"] = walls
            metrics = {
                "setup_s": import_s + statistics.median(setups),
                "wall_s": statistics.median(walls),
                "peak_rss_mb": workload.peak_rss_mb(),
            }
            metrics["paper_log_error"] = workload.paper_log_error()
            units = END_TO_END_UNITS
        else:
            metrics = _traced(workload, seconds, tally, info)
            units = {name: tracing.unit_of(name) for name in metrics}
    finally:
        workload.close()
    info["properties"] = workload.properties()
    info["notes"] = workload.notes()
    return {
        "correct": tally[1] == 0,
        "attempted": tally[0],
        "failed": tally[1],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "info": info,
    }


def _traced(workload, seconds: float, tally: list[int], info: dict) -> dict[str, float]:
    """Half the time untraced, half with spans, then one counted iteration.

    The program's counters are read in an iteration of their own: with a
    recorder installed the program replays per-point emissions, which
    would otherwise land in the spans' self times.
    """
    from repro.obs import CountersRecorder, using_recorder

    plain, _ = measure(workload, seconds / 2, tally)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, disk = measure(workload, seconds / 2, tally, tracer.span, tracer)
    finally:
        tracer.uninstall()
    recorder = CountersRecorder()
    with using_recorder(recorder):
        counted, _ = measure(workload, 0, tally)
    info["wall_samples_s"], info["traced_wall_samples_s"] = plain, traced
    tracer.write(REPO / ".perfbench" / "traces" / f"{workload.name}-seed{workload.seed}.jsonl")
    snapshot = recorder.snapshot()
    return tracing.layer_metrics(
        tracer,
        snapshot["counters"],
        snapshot["histograms"],
        untraced_wall_s=statistics.median(plain),
        traced_wall_s=statistics.median(traced),
        counted_wall_s=counted[0],
        workers=workload.workers,
        disk_bytes=disk,
    )


def _print_human(name: str, result: dict) -> None:
    info = result["info"]
    print(f"workload {name}: {result['attempted']} operations, {result['failed']} failed")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<44} {entry['value']:>16.6g} {entry['unit']}")
    walls = info["wall_samples_s"]
    print(f"  wall_s samples: n={len(walls)} min={min(walls):.6g} max={max(walls):.6g} "
          f"(median reported; setup samples {['%.4g' % s for s in info['setup_samples_s']]}, "
          f"import {info['import_s']:.4g} s)")
    if "traced_wall_samples_s" in info:
        print(f"  traced wall_s samples: n={len(info['traced_wall_samples_s'])}")
        values = {k: v["value"] for k, v in result["metrics"].items()}
        layers = {k[:-len(".self_s")]: v for k, v in values.items() if k.endswith(".self_s")}
        layers["(unattributed)"] = values["trace.unattributed_s"]
        top = sorted(layers.items(), key=lambda kv: -kv[1])[:5]
        print("  top self time: " + ", ".join(
            f"{name} {value / values['trace.wall_s']:.1%}" for name, value in top))
    for note in info["notes"]:
        print(f"  not checked: {note}")
    if info["properties"]:
        shares = ", ".join(f"{k}={v:.4f}" for k, v in info["properties"].items())
        print(f"  input properties: {shares}")


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        proc = subprocess.run(command, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {REPO / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    start = time.perf_counter()
    sys.path.insert(0, str(REPO / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    for module in workload.imports:
        importlib.import_module(module)
    import_s = time.perf_counter() - start

    result = run_workload(workload, args.seconds, bool(args.trace), import_s)
    _print_human(args.workload, result)
    del result["info"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
