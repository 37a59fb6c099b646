"""Sequential-read bandwidth tests (paper §3, Figures 3-5).

These tests encode the *shapes* of the paper's read figures: peak
locations, orderings, and ratio bands. Absolute values are checked only
against the calibration anchors the model was fitted to.
"""

import pytest

from repro.memsim import (
    DaxMode,
    DirectoryState,
    Layout,
    MachineConfig,
    MediaKind,
    PinningPolicy,
    evaluate,
    paper_config,
    read_stream,
)

PAPER = paper_config()
NO_PREFETCH = MachineConfig(prefetcher_enabled=False)
WARM = DirectoryState.warm(PAPER.topology)


def gbps(*streams, config=PAPER, directory=None):
    """Total GB/s of ``streams`` evaluated together on ``config``."""
    return evaluate(config, streams, directory).total_gbps



class TestFig3AccessSize:
    def test_grouped_peaks_at_4k(self):
        sizes = [64, 256, 512, 1024, 2048, 4096, 16384, 65536]
        curve = {
            s: gbps(read_stream(36, access_size=s, layout=Layout.GROUPED))
            for s in sizes
        }
        assert max(curve, key=curve.get) == 4096

    def test_grouped_peak_near_40(self):
        peak = gbps(read_stream(36, layout=Layout.GROUPED))
        assert peak == pytest.approx(40.0, rel=0.05)

    def test_grouped_64b_collapses(self):
        # Fig. 3a: grouped 64 B at 36 threads lands around 12 GB/s
        # because the window keeps barely two DIMMs busy.
        small = gbps(read_stream(36, access_size=64, layout=Layout.GROUPED))
        assert 8.0 < small < 15.0

    def test_prefetcher_dip_at_1k_2k(self):
        # The 1-2 KB dip of Fig. 3a.
        b512 = gbps(read_stream(36, access_size=512, layout=Layout.GROUPED))
        b1k = gbps(read_stream(36, access_size=1024, layout=Layout.GROUPED))
        b2k = gbps(read_stream(36, access_size=2048, layout=Layout.GROUPED))
        b4k = gbps(read_stream(36, layout=Layout.GROUPED))
        assert b1k < b512
        assert b2k < b4k

    def test_disabling_prefetcher_removes_dip(self):
        b1k = gbps(
            read_stream(36, access_size=1024, layout=Layout.GROUPED),
            config=NO_PREFETCH,
        )
        b2k = gbps(
            read_stream(36, access_size=2048, layout=Layout.GROUPED),
            config=NO_PREFETCH,
        )
        b4k = gbps(read_stream(36, layout=Layout.GROUPED), config=NO_PREFETCH)
        assert b1k >= 0.9 * b4k
        assert b2k >= 0.9 * b4k

    def test_individual_access_flat_in_size(self):
        # Fig. 3b: individual access bandwidth is nearly size-independent
        # at high thread counts ("the maximum individual spans only 3 GB").
        values = [
            gbps(read_stream(18, access_size=s)) for s in (64, 256, 1024, 4096, 65536)
        ]
        assert max(values) - min(values) < 4.0

    def test_individual_small_reads_stay_fast(self):
        # Sub-line sequential reads are served from the 256 B buffer: 30+
        # GB/s even at 64 B (§3.1).
        assert gbps(read_stream(18, access_size=64)) > 30.0

    def test_bandwidth_constant_beyond_64k(self):
        b64k = gbps(read_stream(36, access_size=65536, layout=Layout.GROUPED))
        b1m = gbps(read_stream(36, access_size=1 << 20, layout=Layout.GROUPED))
        assert b64k == pytest.approx(b1m, rel=0.01)


class TestFig3ThreadCount:
    def test_peak_at_16_to_18_threads(self):
        curve = {t: gbps(read_stream(t)) for t in (1, 4, 8, 16, 18, 24, 36)}
        peak_threads = max(curve, key=curve.get)
        assert peak_threads in (16, 18, 36)
        assert curve[18] == pytest.approx(40.0, rel=0.05)

    def test_8_threads_within_15_percent_of_peak(self):
        # §3.2: "as few as 8 threads achieves nearly as much bandwidth
        # as 36 threads (~15% difference)".
        b8 = gbps(read_stream(8))
        b36 = gbps(read_stream(36))
        assert b8 >= 0.82 * b36

    def test_hyperthreads_do_not_improve_reads(self):
        # §3.2: "adding hyperthreads does not improve the bandwidth";
        # 24 threads even dip below the 18-thread peak (Fig. 4).
        b18 = gbps(read_stream(18))
        b24 = gbps(read_stream(24))
        assert b24 <= b18

    def test_monotone_up_to_core_count(self):
        values = [gbps(read_stream(t)) for t in (1, 2, 4, 8, 12, 16, 18)]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    def test_disabled_prefetcher_restores_36_thread_peak(self):
        # §3.2: with the prefetcher disabled, 36 threads also reach ~40.
        assert gbps(read_stream(36), config=NO_PREFETCH) == pytest.approx(
            40.0, rel=0.05
        )


class TestFig4Pinning:
    def test_pinning_order(self):
        # Cores >= NUMA >> None, at every thread count.
        for threads in (4, 8, 18, 24, 36):
            cores = gbps(read_stream(threads, pinning=PinningPolicy.CORES))
            numa = gbps(read_stream(threads, pinning=PinningPolicy.NUMA_REGION))
            none = gbps(read_stream(threads, pinning=PinningPolicy.NONE))
            assert cores >= numa >= none

    def test_unpinned_peak_near_9(self):
        peak = max(
            gbps(read_stream(t, pinning=PinningPolicy.NONE))
            for t in (1, 4, 8, 18, 24, 36)
        )
        assert peak == pytest.approx(9.0, rel=0.15)

    def test_unpinned_is_4x_worse(self):
        # §4.3: "no pinning is 4x worse for reading".
        pinned = gbps(read_stream(18))
        unpinned = gbps(read_stream(18, pinning=PinningPolicy.NONE))
        assert pinned / unpinned > 3.5

    def test_numa_equals_cores_below_core_count(self):
        for threads in (1, 8, 18):
            cores = gbps(read_stream(threads))
            numa = gbps(read_stream(threads, pinning=PinningPolicy.NUMA_REGION))
            assert numa == pytest.approx(cores)


class TestFig5NumaEffects:
    def test_near_peak(self):
        assert gbps(read_stream(18)) == pytest.approx(40.0, rel=0.05)

    def test_cold_far_is_5x_worse(self):
        cold = gbps(read_stream(18, target_socket=1), directory=DirectoryState.cold())
        near = gbps(read_stream(18))
        assert near / cold >= 4.5

    def test_cold_far_optimum_shifts_to_4_threads(self):
        curve = {
            t: gbps(read_stream(t, target_socket=1), directory=DirectoryState.cold())
            for t in (1, 4, 8, 18, 36)
        }
        assert max(curve, key=curve.get) == 4

    def test_warm_far_reaches_33(self):
        warm = gbps(read_stream(18, target_socket=1), directory=WARM)
        assert warm == pytest.approx(33.0, rel=0.05)

    def test_second_run_is_warm(self):
        # The directory remembers the first traversal: re-evaluating the
        # same far stream jumps from ~8 to ~33 GB/s (Fig. 5 "2nd Far").
        far = (read_stream(18, target_socket=1),)
        first = evaluate(PAPER, far, DirectoryState.cold())
        second = evaluate(PAPER, far, first.directory_after)
        assert second.total_gbps > 3 * first.total_gbps


class TestDaxModes:
    def test_fsdax_is_5_to_10_percent_slower(self):
        devdax = gbps(read_stream(18))
        fsdax = gbps(read_stream(18, dax_mode=DaxMode.FSDAX))
        ratio = devdax / fsdax
        assert 1.04 < ratio < 1.12

    def test_prefaulted_fsdax_matches_devdax(self):
        # §2.3: identical performance once all pages were pre-faulted.
        devdax = gbps(read_stream(18))
        fsdax = gbps(read_stream(18, dax_mode=DaxMode.FSDAX, prefaulted=True))
        assert fsdax == pytest.approx(devdax)

    def test_dram_ignores_dax_mode(self):
        a = gbps(read_stream(18, media=MediaKind.DRAM))
        b = gbps(read_stream(18, media=MediaKind.DRAM, dax_mode=DaxMode.FSDAX))
        assert a == b


class TestDramContrast:
    def test_dram_read_peak_near_100(self):
        assert gbps(read_stream(18, media=MediaKind.DRAM)) == pytest.approx(
            100.0, rel=0.05
        )

    def test_dram_prefetch_dip_exists_too(self):
        # §3.1: the 1-2 KB anomaly "is not a PMEM-specific anomaly".
        dram, grouped = MediaKind.DRAM, Layout.GROUPED
        b1k = gbps(read_stream(36, access_size=1024, media=dram, layout=grouped))
        b4k = gbps(read_stream(36, media=dram, layout=grouped))
        assert b1k < 0.8 * b4k

    def test_pmem_reads_about_a_third_of_dram(self):
        pmem = gbps(read_stream(18))
        dram = gbps(read_stream(18, media=MediaKind.DRAM))
        assert 0.3 < pmem / dram < 0.5
