"""Benchmark: regenerate Figure 13 (random writes, PMEM/DRAM)."""

from benchmarks.conftest import attach
from repro.experiments.fig13 import run


def test_fig13_random_write(benchmark):
    result = benchmark(run)
    attach(benchmark, result)
    assert max(result.series_values("a-pmem/6T").values()) > max(
        result.series_values("a-pmem/36T").values()
    )
