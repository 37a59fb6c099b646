"""Random-access bandwidth tests (paper §5.2 / Figures 12-13)."""

import pytest

from repro.memsim import (
    MediaKind,
    Pattern,
    evaluate,
    paper_config,
    read_stream,
    write_stream,
)
from repro.units import GIB

PAPER = paper_config()
REGION = 2 * GIB  # the §5.2 hash-index region


def gbps(*streams, config=PAPER, directory=None):
    """Total GB/s of ``streams`` evaluated together on ``config``."""
    return evaluate(config, streams, directory).total_gbps


def rand_read(threads, size=4096, region_bytes=REGION, **spec):
    """GB/s of uniform random reads over ``region_bytes``."""
    return gbps(read_stream(
        threads, access_size=size, pattern=Pattern.RANDOM,
        region_bytes=region_bytes, **spec,
    ))


def rand_write(threads, size=4096, region_bytes=REGION, **spec):
    """GB/s of uniform random writes over ``region_bytes``."""
    return gbps(write_stream(
        threads, access_size=size, pattern=Pattern.RANDOM,
        region_bytes=region_bytes, **spec,
    ))


class TestFig12RandomReads:
    def test_pmem_tops_out_at_two_thirds_sequential(self):
        seq = gbps(read_stream(18))
        rand = max(rand_read(t, 8192) for t in (8, 18, 24, 36))
        assert 0.55 < rand / seq < 0.75

    def test_pmem_256b_about_half_sequential(self):
        seq = gbps(read_stream(36))
        rand = rand_read(36, 256)
        assert 0.3 < rand / seq < 0.6

    def test_more_threads_help_random_reads(self):
        values = [rand_read(t, 256) for t in (1, 4, 8, 18, 24, 36)]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    def test_hyperthreading_helps_random_unlike_sequential(self):
        # §5.2: "hyperthreading improves the PMEM bandwidth, unlike
        # sequential reads".
        assert rand_read(36, 256) > rand_read(18, 256)
        assert gbps(read_stream(36)) <= gbps(read_stream(18)) * 1.01

    def test_bandwidth_monotone_in_access_size(self):
        values = [rand_read(36, s) for s in (64, 256, 1024, 4096, 8192)]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    def test_sub_line_amplification_hurts(self):
        # 64 B random reads pay the 256 B media line.
        assert rand_read(36, 64) < 0.5 * rand_read(36, 256)


class TestFig12DramRegionEffect:
    def test_small_region_uses_half_channels(self):
        small = rand_read(36, 512, media=MediaKind.DRAM, region_bytes=2 * GIB)
        large = rand_read(36, 512, media=MediaKind.DRAM, region_bytes=90 * GIB)
        assert large > 1.5 * small

    def test_large_region_reaches_90_percent_of_sequential(self):
        seq = gbps(read_stream(18, media=MediaKind.DRAM))
        rand = rand_read(36, 8192, media=MediaKind.DRAM, region_bytes=90 * GIB)
        assert rand / seq == pytest.approx(0.9, rel=0.06)

    def test_dram_4x_over_pmem_at_512b_large_region(self):
        # §5.2: large-region DRAM shows "4x bandwidth over PMEM for 512
        # Byte".
        dram = rand_read(36, 512, media=MediaKind.DRAM, region_bytes=90 * GIB)
        pmem = rand_read(36, 512)
        assert 2.5 < dram / pmem < 5.5

    def test_pmem_is_region_size_independent(self):
        # PMEM is interleaved at 4 KB regardless of allocation size.
        small = rand_read(36, 512, region_bytes=2 * GIB)
        large = rand_read(36, 512, region_bytes=90 * GIB)
        assert small == pytest.approx(large)


class TestFig13RandomWrites:
    def test_pmem_peak_with_4_to_6_threads(self):
        curve = {t: rand_write(t) for t in (1, 2, 4, 6, 8, 18, 36)}
        best = max(curve, key=curve.get)
        assert best in (4, 6)

    def test_pmem_tops_out_at_two_thirds_sequential(self):
        seq = max(gbps(write_stream(t)) for t in (4, 6))
        rand = max(rand_write(t, 8192) for t in (4, 6))
        assert 0.5 < rand / seq < 0.8

    def test_larger_access_improves_pmem_random_writes(self):
        values = [rand_write(6, s) for s in (64, 256, 1024, 4096)]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    def test_many_threads_hurt_pmem_random_writes(self):
        assert rand_write(36) < rand_write(6)

    def test_dram_random_writes_scale_with_threads(self):
        values = [
            rand_write(t, 1024, media=MediaKind.DRAM) for t in (1, 8, 18, 36)
        ]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    def test_dram_insensitive_to_access_size_beyond_1k(self):
        b1k = rand_write(36, 1024, media=MediaKind.DRAM)
        b8k = rand_write(36, 8192, media=MediaKind.DRAM)
        assert b8k <= 1.35 * b1k


class TestInsight12:
    def test_sequential_beats_random_everywhere(self):
        # Insight #12: access PMEM sequentially when possible.
        for threads in (8, 18, 36):
            assert gbps(read_stream(threads)) > rand_read(threads)
        for threads in (4, 6):
            assert gbps(write_stream(threads)) > rand_write(threads)

    def test_use_largest_possible_random_access(self):
        # Insight #12: the largest access wins for random workloads.
        assert rand_read(36) > rand_read(36, 256)
        assert rand_read(36, 256) >= rand_read(36, 64)
