"""Benchmark: the sweep service's memo cache and batched grid path.

Regenerates Figure 3 (the largest grid sweep: access size x thread count
x media) three ways — uncached, warm-cache, and the raw grid through the
default (vector) ``SweepRunner`` — so the report quantifies what the
pure-core refactor buys: a warm second regeneration should be far
cheaper than a cold one, and the batched run must stay bit-identical to
a per-point loop.

A fourth case prices a cold 8000-point grid of distinct points, about
8 % of them multi-stream, and records how the grid call's time splits
between the kernel and the service around it.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import replace

from repro.experiments.fig03 import run
from repro.memsim import (
    MediaKind,
    Op,
    Pattern,
    PinningPolicy,
    StreamSpec,
    evaluate,
    paper_config,
)
from repro.memsim.kernels import analytic
from repro.sweep import EvaluationService, SweepRunner, set_default_service
from repro.workloads.sequential import sequential_sweep


@contextmanager
def _default(service: EvaluationService):
    """Route every default-service lookup to ``service`` for the block."""
    previous = set_default_service(service)
    try:
        yield service
    finally:
        set_default_service(previous)


def test_sweep_cold(benchmark):
    """Full Figure 3 regeneration with caching disabled: the baseline."""
    with _default(EvaluationService(memoize=False)):
        result = benchmark(run)
    assert result.comparisons


def test_sweep_warm_cache(benchmark):
    """Regeneration against an already-populated memo cache."""
    with _default(EvaluationService()) as service:
        run()  # populate
        per_run = service.stats.lookups
        before = replace(service.stats)
        result = benchmark(run)
    hits = service.stats.hits - before.hits
    benchmark.extra_info["hit_rate"] = round(service.stats.hit_rate, 3)
    # Every lookup of every timed run is a hit, however many runs the
    # benchmark timed (one under --benchmark-disable).
    assert service.stats.misses == before.misses
    assert hits > 0 and hits % per_run == 0
    assert result.comparisons


def test_sweep_vector(benchmark):
    """The raw grid through the batched runner, checked against serial."""
    grid = sequential_sweep(Op.READ)
    service = EvaluationService(memoize=False)
    serial = {
        point.label: service.evaluate(paper_config(), point.streams).total_gbps
        for point in grid
    }
    totals = benchmark(
        lambda: SweepRunner(EvaluationService(memoize=False)).totals(grid)
    )
    assert totals == serial


def _stream(rng: random.Random) -> StreamSpec:
    issuing = rng.choice((0, 1))
    far = rng.random() < 0.08
    return StreamSpec(
        op=rng.choice((Op.READ, Op.WRITE)),
        threads=rng.randint(1, 36),
        access_size=64 * rng.randint(1, 256),
        media=rng.choice((MediaKind.PMEM, MediaKind.PMEM, MediaKind.DRAM)),
        pattern=Pattern.RANDOM if rng.random() < 0.28 else Pattern.SEQUENTIAL,
        pinning=PinningPolicy.NONE if rng.random() < 0.01 else PinningPolicy.CORES,
        issuing_socket=issuing,
        target_socket=1 - issuing if far else issuing,
    )


def mixed_grid(n: int = 8000, seed: int = 23) -> list[tuple[StreamSpec, ...]]:
    """``n`` distinct seeded points, ~8 % of them with two or three streams."""
    rng = random.Random(seed)
    seen: set[tuple[StreamSpec, ...]] = set()
    points: list[tuple[StreamSpec, ...]] = []
    while len(points) < n:
        count = rng.choice((2, 2, 3)) if rng.random() < 0.08 else 1
        point = tuple(_stream(rng) for _ in range(count))
        if point not in seen:
            seen.add(point)
            points.append(point)
    return points


def test_sweep_cold_mixed_grid(benchmark, monkeypatch):
    """8000 distinct points priced cold: the kernel beside the service.

    ``extra_info`` holds one extra cold pass's split: the kernel's time
    (``evaluate_points_columns``), the rest of the grid call (the
    service's lookup, classification and store), and their ratio.
    """
    config = paper_config()
    points = mixed_grid()
    out = benchmark(
        lambda: EvaluationService().evaluate_grid_columns(config, points)
    )
    multi = sum(1 for point in points if len(point) > 1)
    benchmark.extra_info["multi_stream_share"] = round(multi / len(points), 4)
    totals = out.total_gbps()
    for i in range(0, len(points), 97):
        assert totals[i] == evaluate(config, points[i]).total_gbps

    kernel_s: list[float] = []
    kernel = analytic.evaluate_points_columns

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return kernel(*args, **kwargs)
        finally:
            kernel_s.append(time.perf_counter() - start)

    monkeypatch.setattr(analytic, "evaluate_points_columns", timed)
    start = time.perf_counter()
    EvaluationService().evaluate_grid_columns(config, points)
    total_s = time.perf_counter() - start
    assert len(kernel_s) == 1
    service_s = total_s - kernel_s[0]
    benchmark.extra_info["kernel_s"] = round(kernel_s[0], 4)
    benchmark.extra_info["service_self_s"] = round(service_s, 4)
    benchmark.extra_info["service_to_kernel_ratio"] = round(service_s / kernel_s[0], 3)
