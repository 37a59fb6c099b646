"""Benchmark: regenerate Figure 4 (read pinning policies)."""

from benchmarks.conftest import attach
from repro.experiments.fig04 import run


def test_fig04_read_pinning(benchmark):
    result = benchmark(run)
    attach(benchmark, result)
    assert max(result.series_values("cores").values()) > 4 * max(
        result.series_values("none").values()
    ) * 0.8
