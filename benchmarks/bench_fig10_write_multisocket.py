"""Benchmark: regenerate Figure 10 (multi-socket writes)."""

from benchmarks.conftest import attach
from repro.experiments.fig10 import run


def test_fig10_write_multisocket(benchmark):
    result = benchmark(run)
    attach(benchmark, result)
    assert max(result.series_values("2 Near").values()) > 23
    assert max(result.series_values("1 Near 1 Far").values()) < 9
