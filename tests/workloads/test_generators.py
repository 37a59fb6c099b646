"""Tests for the paper-workload generators."""

import pytest

from repro.memsim import (
    Layout,
    MediaKind,
    Op,
    Pattern,
    PinningPolicy,
    evaluate,
    paper_config,
)
from repro.workloads import (
    MULTISOCKET_READ_LABELS,
    PAPER_ACCESS_SIZES,
    PAPER_THREAD_COUNTS,
    mixed_grid,
    multisocket_read_scenarios,
    multisocket_write_scenarios,
    numa_locality_sweep,
    pinning_sweep,
    random_sweep,
    sequential_sweep,
)


class TestSequentialSweep:
    def test_covers_full_grid(self):
        grid = sequential_sweep(Op.READ)
        assert len(grid) == len(PAPER_ACCESS_SIZES) * len(PAPER_THREAD_COUNTS)

    def test_streams_match_params(self):
        grid = sequential_sweep(Op.READ)
        point = grid.point("18T/4096B")
        (spec,) = point.streams
        assert spec.threads == 18
        assert spec.access_size == 4096
        assert spec.op is Op.READ
        assert spec.pinning is PinningPolicy.NUMA_REGION

    def test_write_sweep_uses_write_thread_counts(self):
        grid = sequential_sweep(Op.WRITE)
        threads = {p.params["threads"] for p in grid}
        assert 2 in threads  # write figures include 2 threads
        assert 16 not in threads

    def test_layout_respected(self):
        grid = sequential_sweep(Op.READ, layout=Layout.INDIVIDUAL)
        assert all(s.layout is Layout.INDIVIDUAL for p in grid for s in p.streams)

    def test_all_points_evaluate(self):
        grid = sequential_sweep(
            Op.READ, access_sizes=(64, 4096), thread_counts=(1, 18)
        )
        for point in grid:
            assert evaluate(paper_config(), point.streams).total_gbps > 0


class TestPinningSweep:
    def test_three_policies(self):
        grid = pinning_sweep(Op.READ)
        policies = {p.params["policy"] for p in grid}
        assert policies == {
            PinningPolicy.NONE,
            PinningPolicy.NUMA_REGION,
            PinningPolicy.CORES,
        }

    def test_individual_4k(self):
        grid = pinning_sweep(Op.WRITE)
        for point in grid:
            (spec,) = point.streams
            assert spec.access_size == 4096
            assert spec.layout is Layout.INDIVIDUAL


class TestNumaSweep:
    def test_near_and_far(self):
        grid = numa_locality_sweep(Op.READ)
        localities = {p.params["locality"] for p in grid}
        assert localities == {"near", "far"}

    def test_far_points_cross_sockets(self):
        grid = numa_locality_sweep(Op.WRITE)
        for point in grid:
            (spec,) = point.streams
            assert spec.far == (point.params["locality"] == "far")


class TestMultisocket:
    def test_read_scenarios_cover_figure6(self):
        grid = multisocket_read_scenarios(thread_counts=(18,))
        scenarios = {p.params["scenario"] for p in grid}
        assert scenarios == set(MULTISOCKET_READ_LABELS)

    def test_two_socket_scenarios_have_two_streams(self):
        grid = multisocket_read_scenarios(thread_counts=(18,))
        for point in grid:
            single = point.params["scenario"] in ("1 Near", "1 Far")
            assert len(point.streams) == (1 if single else 2)

    def test_shared_target_scenario_targets_socket0(self):
        grid = multisocket_read_scenarios(thread_counts=(18,))
        point = grid.point("1 Near 1 Far/18T")
        assert {s.target_socket for s in point.streams} == {0}
        assert {s.issuing_socket for s in point.streams} == {0, 1}

    def test_write_scenarios_dram_supported(self):
        grid = multisocket_write_scenarios(
            media=MediaKind.DRAM, thread_counts=(4,)
        )
        assert all(
            s.media is MediaKind.DRAM for p in grid for s in p.streams
        )


class TestMixedGrid:
    def test_twelve_combinations(self):
        grid = mixed_grid()
        assert len(grid) == 12  # 3 writer counts x 4 reader counts

    def test_each_point_has_reader_and_writer(self):
        grid = mixed_grid()
        for point in grid:
            ops = {s.op for s in point.streams}
            assert ops == {Op.READ, Op.WRITE}

    def test_forty_gb_datasets(self):
        grid = mixed_grid()
        for point in grid:
            assert all(s.total_bytes == 40 * 1024**3 for s in point.streams)


class TestRandomSweep:
    def test_sizes_capped_at_8k(self):
        grid = random_sweep(Op.READ)
        assert max(p.params["access_size"] for p in grid) == 8192

    def test_pattern_is_random(self):
        grid = random_sweep(Op.WRITE)
        assert all(s.pattern is Pattern.RANDOM for p in grid for s in p.streams)

    def test_default_region_is_2gib(self):
        grid = random_sweep(Op.READ)
        assert all(s.region_bytes == 2 * 1024**3 for p in grid for s in p.streams)
