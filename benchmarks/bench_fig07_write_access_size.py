"""Benchmark: regenerate Figure 7 (write bandwidth sweep)."""

from benchmarks.conftest import attach
from repro.experiments.fig07 import run


def test_fig07_write_access_size(benchmark):
    result = benchmark(run)
    attach(benchmark, result)
    grouped_36 = result.series_values("a-grouped/36T")
    individual_36 = result.series_values("b-individual/36T")
    assert individual_36["64"] > 3 * grouped_36["64"]
