"""Shared fixtures for the benchmark harness.

Each ``bench_*`` file regenerates one table or figure of the paper; the
wall time pytest-benchmark reports is the cost of regenerating it, and
the reproduced values are attached as ``extra_info`` so
``pytest benchmarks/ --benchmark-only`` doubles as the results run.
"""

from __future__ import annotations

import pytest

from repro.memsim import Op
from repro.ssb.runner import SsbRunner
from repro.workloads.sequential import sequential_sweep


@pytest.fixture(scope="session")
def fig3_grid():
    # The Figure 3 read sweep: the shared workload for the sweep-service
    # and observability-overhead benches, so their numbers are comparable.
    return sequential_sweep(Op.READ)


@pytest.fixture(scope="session")
def ssb_runner() -> SsbRunner:
    # One generated database and one traffic recording serve every SSB
    # bench; sf 0.05 keeps the execution under a few seconds.
    return SsbRunner(measured_sf=0.05)


def attach(benchmark, result) -> None:
    """Record an experiment's paper-vs-measured checks on the benchmark."""
    for comparison in result.comparisons:
        benchmark.extra_info[comparison.metric] = {
            "paper": round(comparison.paper, 3),
            "reproduction": round(comparison.measured, 3),
            "ratio": round(comparison.ratio, 3),
        }
