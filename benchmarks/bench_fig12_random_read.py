"""Benchmark: regenerate Figure 12 (random reads, PMEM/DRAM)."""

from benchmarks.conftest import attach
from repro.experiments.fig12 import run


def test_fig12_random_read(benchmark):
    result = benchmark(run)
    attach(benchmark, result)
    pmem = result.series_values("a-pmem/36T")
    assert pmem["4096"] > pmem["256"] > pmem["64"]
