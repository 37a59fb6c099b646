"""Tests for the experiment plumbing helpers."""

import pytest

from repro.experiments.common import curves_by, evaluate_grid
from repro.memsim import Op, paper_config
from repro.workloads import sequential_sweep


class TestEvaluateGrid:
    def test_every_label_evaluated(self):
        grid = sequential_sweep(
            Op.READ, access_sizes=(4096,), thread_counts=(1, 18)
        )
        values = evaluate_grid(paper_config(), grid)
        assert set(values) == set(grid.labels())
        assert all(v > 0 for v in values.values())

    def test_directory_prewarmed(self):
        # A far point inside a grid must see warm-directory behaviour.
        from repro.workloads import numa_locality_sweep

        grid = numa_locality_sweep(Op.READ, thread_counts=(18,))
        values = evaluate_grid(paper_config(), grid)
        assert values["far/18T"] == pytest.approx(33.0, rel=0.05)


class TestCurvesBy:
    def test_regroups_by_parameter(self):
        grid = sequential_sweep(
            Op.READ, access_sizes=(64, 4096), thread_counts=(1, 18)
        )
        values = evaluate_grid(paper_config(), grid)
        curves = curves_by(values, grid, "threads", "access_size")
        assert set(curves) == {"1", "18"}
        assert set(curves["18"]) == {"64", "4096"}
        assert curves["18"]["4096"] == values["18T/4096B"]
