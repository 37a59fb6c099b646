"""Benchmark: regenerate Figure 9 (write pinning policies)."""

from benchmarks.conftest import attach
from repro.experiments.fig09 import run


def test_fig09_write_pinning(benchmark):
    result = benchmark(run)
    attach(benchmark, result)
    ratio = max(result.series_values("cores").values()) / max(
        result.series_values("none").values()
    )
    assert 1.5 < ratio < 2.6
