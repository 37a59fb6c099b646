"""Benchmark: the sweep service's memo cache and batched grid path.

Regenerates Figure 3 (the largest grid sweep: access size x thread count
x media) three ways — uncached, warm-cache, and the raw grid through the
default (vector) ``SweepRunner`` — so the report quantifies what the
pure-core refactor buys: a warm second regeneration should be far
cheaper than a cold one, and the batched run must stay bit-identical to
a per-point loop.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.experiments.fig03 import run
from repro.memsim import Op, paper_config
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
        result = benchmark(run)
    benchmark.extra_info["hit_rate"] = round(service.stats.hit_rate, 3)
    assert service.stats.hit_rate > 0.5
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
