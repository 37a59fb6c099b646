"""Benchmark: regenerate Figure 8 (the write boomerang heatmap)."""

from benchmarks.conftest import attach
from repro.experiments.fig08 import run


def test_fig08_write_heatmap(benchmark):
    result = benchmark(run)
    attach(benchmark, result)
    # The boomerang: both-axes-large is cold, each edge stays hot.
    assert result.series_values("b-individual/6T")["4096"] > 10
    assert result.series_values("b-individual/36T")["65536"] < 7
