"""Benchmark: regenerate the devdax/fsdax comparison (§2.3)."""

from benchmarks.conftest import attach
from repro.experiments.daxmode import run


def test_daxmode(benchmark):
    result = benchmark(run)
    attach(benchmark, result)
    devdax = result.series_values("devdax")["18"]
    fsdax = result.series_values("fsdax")["18"]
    assert 1.04 < devdax / fsdax < 1.11
