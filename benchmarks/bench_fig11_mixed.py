"""Benchmark: regenerate Figure 11 (mixed read/write workloads)."""

from benchmarks.conftest import attach
from repro.experiments.fig11 import run


def test_fig11_mixed(benchmark):
    result = benchmark(run)
    attach(benchmark, result)
    reads = result.series_values("read")
    assert reads["1/30"] < 30.0  # one writer already dents the pool
    assert reads["6/18"] < reads["1/18"]
