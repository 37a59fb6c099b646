"""DES on DRAM: the contrast device must behave like DRAM in the replay."""

import pytest

from repro.memsim import MediaKind
from repro.memsim.engine import EngineConfig, simulate
from repro.memsim.spec import Layout, Op
from repro.units import MIB


class TestDramReplay:
    def test_read_peak(self):
        result = simulate(
            EngineConfig(
                op=Op.READ, threads=18, access_size=4096,
                media=MediaKind.DRAM, total_bytes=32 * MIB,
            )
        )
        assert result.gbps == pytest.approx(100.0, rel=0.1)

    def test_writes_do_not_boomerang(self):
        # DRAM has no write-combining collapse: 18 threads keep scaling.
        b4 = simulate(
            EngineConfig(op=Op.WRITE, threads=4, access_size=4096,
                         media=MediaKind.DRAM, total_bytes=16 * MIB)
        ).gbps
        b18 = simulate(
            EngineConfig(op=Op.WRITE, threads=18, access_size=4096,
                         media=MediaKind.DRAM, total_bytes=32 * MIB)
        ).gbps
        assert b18 >= b4

    def test_no_write_amplification(self):
        result = simulate(
            EngineConfig(op=Op.WRITE, threads=18, access_size=4096,
                         media=MediaKind.DRAM, total_bytes=16 * MIB)
        )
        assert result.amplification == pytest.approx(1.0)

    def test_pmem_slower_than_dram_in_replay(self):
        def run(media):
            return simulate(
                EngineConfig(op=Op.READ, threads=18, access_size=4096,
                             media=media, total_bytes=16 * MIB)
            ).gbps

        assert run(MediaKind.PMEM) < run(MediaKind.DRAM)

    def test_ssd_media_rejected(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError, match="does not model media"):
            EngineConfig(op=Op.READ, threads=1, access_size=4096,
                         media=MediaKind.SSD, total_bytes=1 * MIB)
