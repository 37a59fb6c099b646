"""Self-tests of the benchmark: run with ``python -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracer import ROOT, TARGETS, Tracer, layer_metrics, nullspan

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(name: str, seed: int, scale: float, trace: bool) -> dict:
    """One smoke-size run in this process, printed as ``run.py`` prints it."""
    result = run.run_workload(workloads.WORKLOADS[name](seed, scale), 0.1, trace, 0.0)
    run._print_human(name, result)
    return result


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_smoke_prints_end_to_end_metrics(name):
    result = _run(name, 7, 0.02, trace=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics", "info"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", ["disk_sweep", "cluster"])
def test_traced_run_prints_per_layer_metrics_that_add_up(name):
    result = _run(name, 3, 0.05, trace=True)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    attributed = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert math.isclose(attributed + metrics["trace.unattributed_s"], metrics["trace.wall_s"],
                        rel_tol=1e-9)
    assert metrics["sweep.cache.digest.calls"] > 0
    assert metrics["trace.overhead_ratio"] > 0


def test_missing_program_source_is_an_error(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in BENCH.glob("*.py"):
        (bench / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def _bandwidth_reproduce(reference: Path) -> workloads.Reproduce:
    workload = workloads.Reproduce(2021, reference=reference)
    workload.setup()
    workload.exp_ids = ["fig3", "fig5", "daxmode"]
    return workload


def test_reproduce_matches_recorded_reference():
    workload = _bandwidth_reproduce(workloads.REFERENCE)
    assert workload.check(workload.iterate(nullspan)) == (3, 0)


def test_ssb_experiments_are_checked_only_at_recorded_seeds():
    reference = workloads.load_reference(workloads.REFERENCE)
    assert {"0", "127", "2021"} <= reference["ssb"].keys()
    for seed, unchecked in ((2021, []), (7, []), (10**6, ["fig14", "table1"])):
        workload = workloads.Reproduce(seed)
        workload.setup()
        assert workload.unchecked() == unchecked
        assert bool(workload.notes()) == bool(unchecked)
        assert (workload.recorded("fig14") is None) == bool(unchecked)


def test_corrupted_reference_counts_failed_operations(tmp_path):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json", encoding="utf-8")
    workload = _bandwidth_reproduce(garbage)
    assert workload.check(workload.iterate(nullspan)) == (3, 3)

    flipped = json.loads(workloads.REFERENCE.read_text(encoding="utf-8"))
    flipped["experiments"]["fig5"] = "0" * 64
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(flipped), encoding="utf-8")
    workload = _bandwidth_reproduce(edited)
    assert workload.check(workload.iterate(nullspan)) == (3, 1)


def test_grid_mismatch_and_raising_point_are_failed_operations():
    from repro.memsim.spec import read_stream
    from repro.workloads.grids import SweepGrid, SweepPoint

    workload = workloads.Sweep(5, scale=0.005)
    workload.setup()
    workload.prepare_oracle()
    output = workload.iterate(nullspan)
    assert workload.check(output) == (len(workload.grid), 0)
    workload.oracle[3] = (0.0).hex()
    assert workload.check(output) == (len(workload.grid), 1)

    # A point on a socket the machine lacks raises in the program; it and
    # every point after it are failed, the completed prefix still checked.
    points = list(workload.grid.points)
    points[10] = SweepPoint("poison", {}, (read_stream(4, issuing_socket=7),))
    workload.grid = SweepGrid("poisoned", tuple(points))
    workload.prepare_oracle()
    assert workload.oracle[10] is None
    assert workload.check(workload.iterate(nullspan)) == (len(points), len(points) - 10)


def _one_iteration(workload: workloads.Workload) -> tuple[int, int]:
    workload.prepare()
    return workload.check(workload.iterate(nullspan))


def test_disk_sweep_fails_every_point_unless_its_seeded_half_is_read():
    workload = workloads.DiskSweep(4, scale=0.05)
    try:
        workload.setup()
        workload.prepare_oracle()
        n = len(workload.grid)
        assert _one_iteration(workload) == (n, 0)
        workload.on_disk += 1  # as if one seeded point had not been read from disk
        assert _one_iteration(workload) == (n, n)
    finally:
        workload.close()


def test_cluster_fails_every_point_unless_two_workers_forked():
    from repro.sweep import EvaluationService, SweepRunner

    workload = workloads.Cluster(4, scale=0.05)
    workload.setup()
    workload.prepare_oracle()
    n = len(workload.grid)
    assert _one_iteration(workload) == (n, 0)
    own = workload.__class__.__mro__[1].peak_rss_mb(workload)
    assert workload.peak_rss_mb() > own  # the workers' own memory counts
    # The same totals computed in-process, on the vector backend.
    workload.runner = lambda: SweepRunner(EvaluationService(), backend="vector")
    assert _one_iteration(workload) == (n, n)


def test_layer_metrics_are_per_iteration_and_ratios_are_not():
    tracer = Tracer()
    for iteration in range(2):
        tracer.iteration = iteration
        with tracer.span(ROOT):
            for key in ("a", "a", "b"):
                with tracer.span("ssb.engine.index_build"):
                    tracer.spans[-1].key = key
    metrics = layer_metrics(tracer, {}, {}, untraced_wall_s=1.0, traced_wall_s=2.0,
                            counted_wall_s=1.0, workers=0, disk_bytes=0)
    assert metrics["ssb.engine.index_build.calls"] == 3
    assert metrics["ssb.engine.index_build.redundant_ratio"] == pytest.approx(1 / 3)
    assert metrics["trace.overhead_ratio"] == 2.0


def _bindings() -> dict[tuple[int, str], object]:
    """Every repro module attribute and wrapped class method, by identity."""
    found = {}
    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("repro"):
            for attr, value in vars(module).items():
                found[(id(module), attr)] = value
    for module_name, path, *_ in TARGETS:
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(sys.modules[module_name], cls_name)
            found[(id(owner), attr)] = owner.__dict__[attr]
    return found


def test_traced_run_restores_every_wrapped_name():
    import repro.ssb.runner
    import repro.sweep.cache
    import repro.sweep.cluster.coordinator
    import repro.sweep.service

    workload = workloads.DiskSweep(2, scale=0.02)
    workload.setup()
    workload.prepare_oracle()
    tracer = Tracer()
    tracer.install()  # imports every target module first
    tracer.uninstall()
    before = _bindings()
    digest = repro.sweep.cache.request_digest
    try:
        tracer.install()
        for module in (repro.sweep.service, repro.sweep.cluster.coordinator):
            assert module.request_digest is not digest
            assert module.request_digest.__wrapped__ is digest
        assert repro.ssb.runner.generate.__wrapped__ is repro.ssb.dbgen.generate.__wrapped__
        walls, _ = run.measure(workload, 0, [0, 0], tracer.span, tracer)
    finally:
        tracer.uninstall()
        workload.close()
    assert {s.name for s in tracer.spans} >= {"sweep.cache.digest", "sweep.cache.disk.get"}
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
