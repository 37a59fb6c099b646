"""Sequential-write bandwidth tests (paper §4, Figures 7-10)."""

import pytest

from repro.memsim import (
    DirectoryState,
    Layout,
    MachineConfig,
    MediaKind,
    PinningPolicy,
    evaluate,
    paper_config,
    read_stream,
    write_stream,
)

PAPER = paper_config()


def gbps(*streams, config=PAPER, directory=None):
    """Total GB/s of ``streams`` evaluated together on ``config``."""
    return evaluate(config, streams, directory).total_gbps



class TestFig7AccessSize:
    def test_global_maximum_at_4k(self):
        sizes = [64, 256, 1024, 4096, 16384, 65536, 1 << 25]
        threads = [1, 2, 4, 6, 8, 18, 24, 36]
        best = max(
            ((gbps(write_stream(t, access_size=s, layout=lay)), s)
             for t in threads for s in sizes
             for lay in (Layout.GROUPED, Layout.INDIVIDUAL)),
        )
        assert best[1] == 4096
        assert best[0] == pytest.approx(13.2, rel=0.06)

    def test_grouped_64b_vs_individual_64b(self):
        # §4.1: 2.6 vs 9.6 GB/s with 64 B and 36 threads.
        grouped = gbps(write_stream(36, access_size=64, layout=Layout.GROUPED))
        individual = gbps(write_stream(36, access_size=64))
        assert individual > 3 * grouped
        assert individual == pytest.approx(9.6, rel=0.1)

    def test_256b_secondary_peak(self):
        # All thread counts above 18 achieve ~10 GB/s at 256 B.
        for threads in (18, 24, 36):
            bw = gbps(write_stream(threads, access_size=256))
            assert 8.0 < bw < 13.0

    def test_high_thread_counts_decay_beyond_256b(self):
        # §4.2: ">18 threads ... decreases significantly, stabilizing at
        # around 5-6 GB/s" for access sizes beyond the 256 B peak.
        plateau = gbps(write_stream(36, access_size=65536))
        assert 4.5 < plateau < 7.0
        assert plateau < gbps(write_stream(36, access_size=256))

    def test_counterintuitive_rule(self):
        # "The higher the thread count, the lower the access size must
        # be" for peak bandwidth.
        best_size_36 = max(
            (64, 256, 1024, 4096, 16384),
            key=lambda s: gbps(write_stream(36, access_size=s)),
        )
        best_size_4 = max(
            (64, 256, 1024, 4096, 16384),
            key=lambda s: gbps(write_stream(4, access_size=s)),
        )
        assert best_size_36 < best_size_4


class TestFig8Boomerang:
    def test_few_threads_hold_peak_at_any_size(self):
        # Bottom edge of the boomerang: 4-6 threads keep >10 GB/s out to
        # 32 MB accesses.
        for size in (4096, 65536, 1 << 25):
            assert gbps(write_stream(4, access_size=size)) > 10.0
            assert gbps(write_stream(6, access_size=size)) > 10.0

    def test_many_threads_hold_peakish_at_small_sizes(self):
        # Top-left edge: high thread counts tolerate small accesses.
        assert gbps(write_stream(36, access_size=256)) > 8.0

    def test_scaling_both_axes_collapses(self):
        # Scaling threads AND size together is the failure mode.
        assert gbps(write_stream(36, access_size=65536)) < 7.0

    def test_eight_threads_drop_beyond_4k(self):
        # Fig. 7a: the 8-thread configuration peaks at 4 KB then drops
        # to ~8 GB/s.
        at_4k = gbps(write_stream(8))
        at_16k = gbps(write_stream(8, access_size=16384))
        assert at_4k > at_16k
        assert at_16k == pytest.approx(8.5, rel=0.15)

    def test_write_combining_ablation(self):
        # Without the combining buffer every store is a read-modify-write
        # and even the friendly configurations collapse.
        off = MachineConfig(write_combining_enabled=False)
        assert gbps(write_stream(4), config=off) < 0.5 * gbps(write_stream(4))


class TestFig7ThreadCount:
    def test_4_to_6_threads_saturate(self):
        # §4.2: "4 threads are sufficient to fully saturate the PMEM
        # bandwidth".
        b4 = gbps(write_stream(4))
        b6 = gbps(write_stream(6))
        assert b4 > 12.0
        assert b6 >= b4 * 0.95

    def test_more_threads_harm_large_writes(self):
        b6 = gbps(write_stream(6, access_size=16384))
        b18 = gbps(write_stream(18, access_size=16384))
        b36 = gbps(write_stream(36, access_size=16384))
        assert b6 > b18 >= b36

    def test_small_writes_tolerate_many_threads(self):
        # §4.2: strictly-sequential small writes are not harmed severely.
        b18 = gbps(write_stream(18, access_size=256))
        b36 = gbps(write_stream(36, access_size=256))
        assert b36 >= 0.8 * b18

    def test_single_thread_rate(self):
        # Per-thread write rate anchor: ~3.2 GB/s at 4 KB.
        assert gbps(write_stream(1)) == pytest.approx(3.16, rel=0.05)


class TestFig9WritePinning:
    def test_pinning_order(self):
        for threads in (4, 8, 18, 36):
            cores = gbps(write_stream(threads))
            numa = gbps(write_stream(threads, pinning=PinningPolicy.NUMA_REGION))
            none = gbps(write_stream(threads, pinning=PinningPolicy.NONE))
            assert cores >= numa > none

    def test_unpinned_writes_2x_worse(self):
        # Fig. 9: ~7 vs ~13 GB/s peaks.
        pinned_peak = max(gbps(write_stream(t)) for t in (4, 6, 8))
        unpinned_peak = max(
            gbps(write_stream(t, pinning=PinningPolicy.NONE))
            for t in (4, 6, 8)
        )
        assert pinned_peak / unpinned_peak == pytest.approx(2.0, rel=0.2)

    def test_unpinned_less_harmful_than_for_reads(self):
        # §4.3: "no pinning is 2x worse for writing ... 4x worse for
        # reading".
        unpinned = PinningPolicy.NONE
        read_ratio = gbps(read_stream(18)) / gbps(read_stream(18, pinning=unpinned))
        write_ratio = gbps(write_stream(8)) / gbps(write_stream(8, pinning=unpinned))
        assert read_ratio > write_ratio


class TestFig10FarWrites:
    def test_far_write_peak_around_7(self):
        peak = max(gbps(write_stream(t, target_socket=1)) for t in (4, 6, 8, 18))
        assert peak == pytest.approx(7.0, rel=0.1)

    def test_far_needs_more_threads_than_near(self):
        # §4.4: 6-8 threads to peak far vs 4 near.
        near_curve = {t: gbps(write_stream(t)) for t in (2, 4, 6, 8, 18)}
        far_curve = {
            t: gbps(write_stream(t, target_socket=1)) for t in (2, 4, 6, 8, 18)
        }
        near_best = min(t for t, v in near_curve.items() if v >= 0.99 * max(near_curve.values()))
        far_best = min(t for t, v in far_curve.items() if v >= 0.99 * max(far_curve.values()))
        assert far_best > near_best

    def test_far_write_at_most_half_of_near(self):
        # §4.5: far writes reach at most 50% of near bandwidth.
        near = max(gbps(write_stream(t)) for t in (4, 6, 8))
        far = max(gbps(write_stream(t, target_socket=1)) for t in (4, 6, 8, 18))
        assert far <= 0.6 * near

    def test_no_warmup_for_writes(self):
        # §4.4: "Unlike reading, we do not observe any warm-up effect".
        far = (write_stream(8, target_socket=1),)
        first = evaluate(PAPER, far, DirectoryState.cold())
        second = evaluate(PAPER, far, first.directory_after)
        assert first.total_gbps == pytest.approx(second.total_gbps)


class TestDramWrites:
    def test_dram_writes_scale_with_threads(self):
        # §4.2: DRAM keeps gaining with more threads.
        values = [
            gbps(write_stream(t, media=MediaKind.DRAM))
            for t in (1, 4, 8, 18)
        ]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    def test_dram_no_large_access_decay(self):
        b4k = gbps(write_stream(18, media=MediaKind.DRAM))
        b1m = gbps(write_stream(18, access_size=1 << 20, media=MediaKind.DRAM))
        assert b1m >= 0.95 * b4k

    def test_pmem_writes_about_a_seventh_of_dram(self):
        # §2.1: "writing a seventh of the bandwidth of DRAM".
        pmem = gbps(write_stream(6))
        dram = gbps(write_stream(18, media=MediaKind.DRAM))
        assert 4.0 < dram / pmem < 8.0
