"""Mixed read/write interference tests (paper §5.1 / Fig. 11)."""

import pytest

from repro.errors import WorkloadError
from repro.memsim import MediaKind, MixedOutcome, evaluate, paper_config, read_stream
from repro.memsim.calibration import paper_calibration
from repro.memsim.mixed import interference_factors, resolve
from repro.workloads import mixed_streams

PAPER = paper_config()


def mixed(write_threads, read_threads, media=MediaKind.PMEM):
    """The §5.1 mixed run: both streams together, then each alone."""
    write, read = mixed_streams(write_threads, read_threads, media=media)
    both = evaluate(PAPER, (write, read))
    return MixedOutcome(
        read_gbps=both.read_gbps,
        write_gbps=both.write_gbps,
        read_alone_gbps=evaluate(PAPER, (read,)).total_gbps,
        write_alone_gbps=evaluate(PAPER, (write,)).total_gbps,
    )


@pytest.fixture(scope="module")
def cal():
    return paper_calibration()


class TestMixedOutcomes:
    def test_single_writer_dents_reader_pool(self):
        # §5.1: 30 readers drop from ~31 to ~26 GB/s with one writer —
        # roughly a 15-30% haircut.
        out = mixed(write_threads=1, read_threads=30)
        assert 0.6 < out.read_retention < 0.85

    def test_single_reader_barely_dents_writers(self):
        # §5.1: 4 writers keep ~12 of ~13 GB/s against one reader.
        out = mixed(write_threads=4, read_threads=1)
        assert out.write_retention > 0.90

    def test_saturating_readers_crush_writers(self):
        # ~40% of max with 30 readers, ~1/3 with 18.
        out = mixed(write_threads=4, read_threads=30)
        assert 0.25 < out.write_retention < 0.5

    def test_recommended_combo_balances_at_a_third(self):
        # 4-6 writers + 16-18 readers: both sides near 1/3 of their max.
        out = mixed(write_threads=6, read_threads=18)
        assert 0.25 < out.write_retention < 0.45
        assert 0.25 < out.read_retention < 0.45

    def test_combined_never_exceeds_uncontended_read_max(self):
        # §5.1: "the combined read and write bandwidth does not exceed
        # the non-contended maximum read bandwidth".
        read_max = evaluate(PAPER, (read_stream(18),)).total_gbps
        for w in (1, 4, 6):
            for r in (1, 8, 18, 30):
                out = mixed(write_threads=w, read_threads=r)
                assert out.total_gbps <= read_max * 1.01

    def test_more_writers_monotonically_hurt_reads(self):
        reads = [
            mixed(write_threads=w, read_threads=18).read_gbps
            for w in (1, 2, 4, 6)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(reads, reads[1:]))

    def test_more_readers_monotonically_hurt_writes(self):
        writes = [
            mixed(write_threads=4, read_threads=r).write_gbps
            for r in (1, 8, 18)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(writes, writes[1:]))

    def test_dram_interference_is_milder(self):
        pmem = mixed(write_threads=4, read_threads=18)
        dram = mixed(write_threads=4, read_threads=18, media=MediaKind.DRAM)
        assert dram.read_retention > pmem.read_retention
        assert dram.write_retention > pmem.write_retention


class TestInterferenceLaw:
    def test_factors_in_unit_interval(self, cal):
        rf, wf = interference_factors(cal, MediaKind.PMEM, 20.0, 10.0)
        assert 0 < rf <= 1
        assert 0 < wf <= 1

    def test_zero_demand_means_no_interference(self, cal):
        rf, wf = interference_factors(cal, MediaKind.PMEM, 0.0, 0.0)
        assert rf == 1.0
        assert wf == 1.0

    def test_negative_rejected(self, cal):
        with pytest.raises(WorkloadError):
            interference_factors(cal, MediaKind.PMEM, -1.0, 0.0)

    def test_ssd_not_modeled(self, cal):
        with pytest.raises(WorkloadError):
            interference_factors(cal, MediaKind.SSD, 1.0, 1.0)

    def test_resolve_enforces_capacity(self, cal):
        out = resolve(cal, MediaKind.PMEM, 40.0, 13.2)
        utilization = (
            out.read_gbps / cal.pmem.seq_read_max
            + out.write_gbps / cal.pmem.seq_write_max
        )
        assert utilization <= 1.0 + 1e-9

    def test_resolve_retention_properties(self, cal):
        out = resolve(cal, MediaKind.PMEM, 30.0, 3.0)
        assert out.read_gbps <= out.read_alone_gbps
        assert out.write_gbps <= out.write_alone_gbps
        assert out.total_gbps == pytest.approx(out.read_gbps + out.write_gbps)
