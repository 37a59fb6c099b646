"""Benchmark: verify the 7 best practices and 12 insights (§7)."""

from benchmarks.conftest import attach
from repro.experiments.bestpractices import run


def test_best_practices(benchmark):
    result = benchmark(run)
    attach(benchmark, result)
    assert all(v == 1.0 for v in result.series_values("practices hold").values())
    assert all(v == 1.0 for v in result.series_values("insights hold").values())
