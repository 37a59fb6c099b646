"""Multi-socket evaluation tests (paper §3.5 / Fig. 6, §4.5 / Fig. 10)."""

import pytest

from repro.memsim import (
    DirectoryState,
    MediaKind,
    Op,
    PinningPolicy,
    StreamSpec,
    evaluate,
    paper_config,
)

PAPER = paper_config()
WARM = DirectoryState.warm(PAPER.topology)


def warm_evaluate(streams):
    """Steady state: every socket pair's directory already warm."""
    return evaluate(PAPER, streams, WARM)


def read18(**kwargs):
    return StreamSpec(
        op=Op.READ, threads=18, pinning=PinningPolicy.NUMA_REGION, **kwargs
    )


def write_stream(threads=4, **kwargs):
    return StreamSpec(
        op=Op.WRITE, threads=threads, pinning=PinningPolicy.NUMA_REGION, **kwargs
    )


class TestFig6aPmemReads:
    def test_two_near_doubles(self):
        one = warm_evaluate([read18()]).total_gbps
        two = warm_evaluate(
            [read18(), read18(issuing_socket=1, target_socket=1)]
        ).total_gbps
        assert two == pytest.approx(2 * one, rel=0.02)
        assert two == pytest.approx(80.0, rel=0.05)

    def test_two_far_flattens_at_50(self):
        result = warm_evaluate(
            [
                read18(issuing_socket=0, target_socket=1),
                read18(issuing_socket=1, target_socket=0),
            ]
        )
        assert result.total_gbps == pytest.approx(50.0, rel=0.05)

    def test_two_far_saturates_upi(self):
        # §3.5: VTune shows 90%+ average UPI utilization.
        result = warm_evaluate(
            [
                read18(issuing_socket=0, target_socket=1),
                read18(issuing_socket=1, target_socket=0),
            ]
        )
        assert result.counters.upi_utilization >= 0.85

    def test_shared_target_collapses(self):
        # Fig. 6a (v): near + far readers on the same PMEM "yields a very
        # low bandwidth" — below either single-socket configuration.
        result = warm_evaluate(
            [read18(), read18(issuing_socket=1, target_socket=0)]
        )
        near_alone = warm_evaluate([read18()]).total_gbps
        far_alone = warm_evaluate(
            [read18(issuing_socket=1, target_socket=0)]
        ).total_gbps
        assert result.total_gbps < near_alone
        assert result.total_gbps < far_alone

    def test_two_near_does_not_use_upi(self):
        result = warm_evaluate(
            [read18(), read18(issuing_socket=1, target_socket=1)]
        )
        assert result.counters.upi_utilization == 0.0
        assert result.counters.upi_bytes == 0.0


class TestFig6bDramReads:
    def test_two_near_reaches_185(self):
        result = warm_evaluate(
            [
                read18(media=MediaKind.DRAM),
                read18(issuing_socket=1, target_socket=1, media=MediaKind.DRAM),
            ]
        )
        assert result.total_gbps == pytest.approx(185.0, rel=0.03)

    def test_far_dram_is_upi_bound_at_33(self):
        result = warm_evaluate(
            [read18(issuing_socket=0, target_socket=1, media=MediaKind.DRAM)]
        )
        assert result.total_gbps == pytest.approx(33.0, rel=0.05)

    def test_two_far_dram_near_60(self):
        result = warm_evaluate(
            [
                read18(issuing_socket=0, target_socket=1, media=MediaKind.DRAM),
                read18(issuing_socket=1, target_socket=0, media=MediaKind.DRAM),
            ]
        )
        assert result.total_gbps == pytest.approx(60.0, rel=0.05)

    def test_dram_far_penalty_stronger_than_pmem(self):
        # Fig. 6: DRAM loses ~2/3 going far (100 -> 33), PMEM only ~18%.
        pmem_ratio = warm_evaluate(
            [read18(issuing_socket=0, target_socket=1)]
        ).total_gbps / warm_evaluate([read18()]).total_gbps
        dram_ratio = warm_evaluate(
            [read18(issuing_socket=0, target_socket=1, media=MediaKind.DRAM)]
        ).total_gbps / warm_evaluate([read18(media=MediaKind.DRAM)]).total_gbps
        assert dram_ratio < pmem_ratio

    def test_dram_shared_target_nearly_matches_two_far(self):
        # Fig. 6b (v): "nearly achieving the performance of only far
        # access on both sockets for DRAM".
        shared = warm_evaluate(
            [
                read18(media=MediaKind.DRAM),
                read18(issuing_socket=1, target_socket=0, media=MediaKind.DRAM),
            ]
        ).total_gbps
        two_far = warm_evaluate(
            [
                read18(issuing_socket=0, target_socket=1, media=MediaKind.DRAM),
                read18(issuing_socket=1, target_socket=0, media=MediaKind.DRAM),
            ]
        ).total_gbps
        assert shared > 0.85 * two_far


class TestFig10MultiSocketWrites:
    def test_two_near_doubles(self):
        one = warm_evaluate([write_stream()]).total_gbps
        two = warm_evaluate(
            [write_stream(), write_stream(issuing_socket=1, target_socket=1)]
        ).total_gbps
        assert two == pytest.approx(2 * one, rel=0.02)

    def test_two_far_peaks_around_13(self):
        result = warm_evaluate(
            [
                write_stream(threads=8, issuing_socket=0, target_socket=1),
                write_stream(threads=8, issuing_socket=1, target_socket=0),
            ]
        )
        assert result.total_gbps == pytest.approx(13.0, rel=0.1)

    def test_near_plus_far_same_pmem_capped_at_8(self):
        result = warm_evaluate(
            [
                write_stream(threads=4),
                write_stream(threads=8, issuing_socket=1, target_socket=0),
            ]
        )
        assert result.total_gbps == pytest.approx(8.0, rel=0.05)

    def test_contended_write_worse_than_near_alone(self):
        contended = warm_evaluate(
            [
                write_stream(threads=4),
                write_stream(threads=8, issuing_socket=1, target_socket=0),
            ]
        ).total_gbps
        near_alone = warm_evaluate([write_stream(threads=4)]).total_gbps
        assert contended < near_alone

    def test_far_write_amplification_up_to_10x(self):
        result = warm_evaluate(
            [write_stream(threads=18, issuing_socket=0, target_socket=1)]
        )
        assert result.counters.write_amplification == pytest.approx(10.0, rel=0.05)

    def test_near_write_amplification_is_low(self):
        result = warm_evaluate([write_stream(threads=4)])
        assert result.counters.write_amplification == pytest.approx(1.0)


class TestEvaluateValidation:
    def test_empty_stream_list_rejected(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            warm_evaluate([])

    def test_unknown_socket_rejected(self):
        from repro.errors import TopologyError

        with pytest.raises(TopologyError):
            warm_evaluate([read18(issuing_socket=7)])

    def test_per_stream_results_reported(self):
        result = warm_evaluate(
            [read18(), read18(issuing_socket=1, target_socket=1)]
        )
        assert len(result.streams) == 2
        assert all(s.gbps > 0 for s in result.streams)
