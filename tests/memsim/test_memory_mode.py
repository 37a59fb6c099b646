"""Tests for the Memory Mode model (§2.1's second operating mode)."""

import pytest

from repro.errors import ConfigurationError, WorkloadError
from repro.memsim import MediaKind, evaluate, paper_config, read_stream, write_stream
from repro.memsim.memory_mode import MemoryModeConfig, MemoryModeModel
from repro.memsim.spec import Pattern
from repro.units import GIB


@pytest.fixture(scope="module")
def mode():
    return MemoryModeModel(paper_config())


def gbps(stream):
    return evaluate(paper_config(), (stream,)).total_gbps


class TestConfig:
    def test_defaults_match_paper_server(self):
        config = MemoryModeConfig()
        assert config.dram_cache_bytes == 93 * GIB
        assert config.pmem_bytes == 768 * GIB

    def test_cache_must_be_smaller_than_pmem(self):
        with pytest.raises(ConfigurationError):
            MemoryModeConfig(dram_cache_bytes=2 * GIB, pmem_bytes=GIB)


class TestHitRate:
    def test_fitting_working_set_always_hits(self, mode):
        assert mode.hit_rate(10 * GIB, Pattern.SEQUENTIAL) == 1.0
        assert mode.hit_rate(10 * GIB, Pattern.RANDOM) == 1.0

    def test_streaming_beyond_cache_never_hits(self, mode):
        assert mode.hit_rate(200 * GIB, Pattern.SEQUENTIAL) == 0.0

    def test_random_hits_with_capacity_ratio(self, mode):
        rate = mode.hit_rate(186 * GIB, Pattern.RANDOM)
        assert rate == pytest.approx(0.5, rel=0.01)

    def test_invalid_working_set(self, mode):
        with pytest.raises(WorkloadError):
            mode.hit_rate(0, Pattern.RANDOM)


class TestBandwidth:
    def test_cached_working_set_runs_at_dram_speed(self, mode):
        cached = mode.read_bandwidth(18, 4096, working_set_bytes=10 * GIB)
        dram = gbps(read_stream(18, media=MediaKind.DRAM))
        assert cached == pytest.approx(dram)

    def test_large_scan_is_slower_than_app_direct(self, mode):
        # Beyond the cache, Memory Mode pays PMEM *plus* cache fills —
        # the reason OLAP research prefers App Direct (§2.1).
        comparison = mode.compare_app_direct(18, 4096, working_set_bytes=700 * GIB)
        assert comparison["memory_mode_gbps"] < comparison["app_direct_gbps"]
        assert comparison["app_direct_gbps"] < comparison["dram_gbps"]

    def test_bandwidth_monotone_in_working_set(self, mode):
        values = [
            mode.read_bandwidth(18, 4096, ws, pattern=Pattern.RANDOM)
            for ws in (50 * GIB, 100 * GIB, 200 * GIB, 700 * GIB)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_small_writes_absorbed_by_cache(self, mode):
        cached = mode.write_bandwidth(18, 4096, working_set_bytes=10 * GIB)
        dram = gbps(write_stream(18, media=MediaKind.DRAM))
        assert cached == pytest.approx(dram)

    def test_large_writes_bound_by_writeback(self, mode):
        large = mode.write_bandwidth(6, 4096, working_set_bytes=700 * GIB)
        pmem = gbps(write_stream(6))
        assert large < pmem  # pays the DRAM pass *and* the writeback

    def test_no_persistence(self, mode):
        assert not mode.is_persistent()
