"""Benchmark: regenerate Figure 3 (read bandwidth sweep)."""

from benchmarks.conftest import attach
from repro.experiments.fig03 import run


def test_fig03_read_access_size(benchmark):
    result = benchmark(run)
    attach(benchmark, result)
    grouped = result.series_values("a-grouped/36T")
    assert max(grouped, key=grouped.get) == "4096"
    assert max(grouped.values()) > 35.0
