"""Benchmark: regenerate Figure 6 (multi-socket reads, PMEM/DRAM)."""

from benchmarks.conftest import attach
from repro.experiments.fig06 import run


def test_fig06_read_multisocket(benchmark):
    result = benchmark(run)
    attach(benchmark, result)
    assert max(result.series_values("a-pmem/2 Near").values()) > 75
    assert max(result.series_values("b-dram/2 Near").values()) > 175
