"""Benchmark: regenerate Figure 5 (read NUMA effects)."""

from benchmarks.conftest import attach
from repro.experiments.fig05 import run


def test_fig05_read_numa(benchmark):
    result = benchmark(run)
    attach(benchmark, result)
    cold = result.series_values("far (1st run)")
    warm = result.series_values("far (2nd run)")
    assert max(warm.values()) > 3 * max(cold.values())
