"""Tests for the traffic-to-runtime cost model."""

import pytest

from repro.errors import ConfigurationError
from repro.memsim import MediaKind
from repro.ssb.costmodel import LLC_BYTES_PER_SOCKET, SsbCostModel
from repro.ssb.engine.traffic import OperatorTraffic, QueryTraffic
from repro.ssb.storage import (
    HANDCRAFTED_DRAM,
    HANDCRAFTED_PMEM,
    HYRISE_DRAM,
    HYRISE_PMEM,
    TRADITIONAL_SSD,
    table1_ladder,
)
from repro.sweep import EvaluationService, set_default_service
from repro.units import GB


@pytest.fixture(scope="module")
def cost_model():
    return SsbCostModel()


class TestScanBandwidth:
    def test_handcrafted_pmem_uses_both_sockets(self, cost_model):
        # 2 x ~40 GB/s near reads, under fsdax.
        gbps = cost_model.scan_gbps(HANDCRAFTED_PMEM)
        assert gbps == pytest.approx(80 / 1.075, rel=0.05)

    def test_handcrafted_dram(self, cost_model):
        assert cost_model.scan_gbps(HANDCRAFTED_DRAM) == pytest.approx(185, rel=0.05)

    def test_hyrise_single_socket(self, cost_model):
        assert cost_model.scan_gbps(HYRISE_PMEM) < 45

    def test_ssd_profile_scans_at_nvme_speed(self, cost_model):
        assert cost_model.scan_gbps(TRADITIONAL_SSD) == pytest.approx(3.2)

    def test_non_numa_aware_is_slower(self, cost_model):
        ladder = table1_ladder(MediaKind.PMEM)
        naive = cost_model.scan_gbps(ladder[2])    # 2-Socket
        aware = cost_model.scan_gbps(ladder[3])    # NUMA
        assert naive < aware


class TestRandomBandwidth:
    def test_pmem_slower_than_dram(self, cost_model):
        pmem = cost_model.random_read_gbps(HANDCRAFTED_PMEM, 256, 64e6)
        dram = cost_model.random_read_gbps(HANDCRAFTED_DRAM, 256, 64e6)
        assert pmem < dram

    def test_small_accesses_slower(self, cost_model):
        small = cost_model.random_read_gbps(HYRISE_PMEM, 64, 64e6)
        large = cost_model.random_read_gbps(HYRISE_PMEM, 256, 64e6)
        assert small < large

    def test_replicated_dimensions_double_bandwidth(self, cost_model):
        aware = cost_model.random_read_gbps(HANDCRAFTED_PMEM, 256, 64e6)
        single = cost_model.random_read_gbps(
            HANDCRAFTED_PMEM.with_(sockets=1), 256, 64e6
        )
        assert aware == pytest.approx(2 * single, rel=0.01)

    def test_non_replicated_pays_far_latency(self, cost_model):
        ladder = table1_ladder(MediaKind.PMEM)
        naive = cost_model.random_read_gbps(ladder[2], 256, 64e6)
        aware = cost_model.random_read_gbps(ladder[3], 256, 64e6)
        assert naive < aware

    def test_ssd_profile_probes_dram(self, cost_model):
        # Indexes live in DRAM for the traditional deployment.
        ssd = cost_model.random_read_gbps(TRADITIONAL_SSD, 256, 64e6)
        assert ssd > 20


class TestResidency:
    def test_small_region_fully_resident_for_aware(self, cost_model):
        assert cost_model.resident_fraction(HANDCRAFTED_PMEM, 1e6) == 1.0

    def test_large_region_partially_resident(self, cost_model):
        fraction = cost_model.resident_fraction(
            HANDCRAFTED_PMEM, 4 * LLC_BYTES_PER_SOCKET
        )
        assert 0 < fraction <= 0.5

    def test_unaware_profile_never_resident(self, cost_model):
        assert cost_model.resident_fraction(HYRISE_PMEM, 1e6) == 0.0


class TestPricing:
    def _traffic(self):
        traffic = QueryTraffic(query="synthetic")
        traffic.add(OperatorTraffic(name="scan", seq_read_bytes=10 * GB, cpu_tuples=1e6))
        traffic.add(
            OperatorTraffic(
                name="probe",
                random_reads=1e8,
                random_read_size=256,
                cpu_tuples=1e8,
                cpu_weight=12.0,
                random_region_bytes=1e9,
            )
        )
        return traffic

    def test_pmem_slower_than_dram(self, cost_model):
        traffic = self._traffic()
        pmem = cost_model.price(traffic, HANDCRAFTED_PMEM).seconds
        dram = cost_model.price(traffic, HANDCRAFTED_DRAM).seconds
        assert pmem > dram

    def test_scale_ratio_scales_time(self, cost_model):
        traffic = self._traffic()
        t1 = cost_model.price(traffic, HANDCRAFTED_PMEM).seconds
        t10 = cost_model.price(traffic, HANDCRAFTED_PMEM, scale_ratio=10).seconds
        assert t10 == pytest.approx(10 * t1, rel=0.15)

    def test_invalid_ratio(self, cost_model):
        with pytest.raises(ConfigurationError):
            cost_model.price(self._traffic(), HANDCRAFTED_PMEM, scale_ratio=0)

    def test_breakdown_phases_named(self, cost_model):
        breakdown = cost_model.price(self._traffic(), HANDCRAFTED_PMEM)
        assert [p.name for p in breakdown.phases] == ["scan", "probe"]
        assert "handcrafted-pmem" in breakdown.describe()

    def test_memory_bound_fraction(self, cost_model):
        breakdown = cost_model.price(self._traffic(), HANDCRAFTED_PMEM)
        assert 0.0 <= breakdown.memory_bound_fraction <= 1.0


class TestServiceLookups:
    """Each distinct stream tuple reaches the evaluation service once."""

    def _traffic(self):
        traffic = QueryTraffic(query="lookups")
        traffic.add(OperatorTraffic(name="scan", seq_read_bytes=10 * GB, cpu_tuples=1e6))
        for size, region in ((256, 1e9), (64, 2e9), (256, 1e9)):
            traffic.add(
                OperatorTraffic(
                    name=f"probe{size}",
                    random_reads=1e7,
                    random_read_size=size,
                    cpu_tuples=1e7,
                    random_region_bytes=region,
                )
            )
        traffic.add(OperatorTraffic(name="write", seq_write_bytes=GB, cpu_tuples=1e6))
        return traffic

    @pytest.fixture
    def service(self, monkeypatch):
        fresh = EvaluationService()
        asked = []
        evaluate = fresh.evaluate

        def spy(config, streams, directory=None, **kwargs):
            asked.append(tuple(streams))
            return evaluate(config, streams, directory, **kwargs)

        monkeypatch.setattr(fresh, "evaluate", spy)
        previous = set_default_service(fresh)
        yield fresh, asked
        set_default_service(previous)

    def test_each_distinct_tuple_is_one_miss(self, service):
        fresh, asked = service
        model = SsbCostModel()
        ladder = table1_ladder(MediaKind.PMEM)
        for profile in (HANDCRAFTED_PMEM, HYRISE_PMEM, *ladder, *ladder):
            model.price(self._traffic(), profile, scale_ratio=10)
        assert len(asked) == len(set(asked)) > 1
        assert fresh.stats.misses == len(asked)
        assert fresh.stats.hits == 0

    def test_repricing_makes_no_lookup(self, service):
        fresh, asked = service
        model = SsbCostModel()
        first = model.price(self._traffic(), HYRISE_PMEM)
        seen = (len(asked), fresh.stats.hits, fresh.stats.misses)
        again = model.price(self._traffic(), HYRISE_PMEM)
        assert (len(asked), fresh.stats.hits, fresh.stats.misses) == seen
        assert again.seconds == first.seconds

    def test_service_error_keeps_its_type(self, monkeypatch):
        class Unpriced(RuntimeError):
            pass

        def refuse(config, streams, directory=None):
            raise Unpriced("no bandwidth")

        monkeypatch.setattr("repro.ssb.costmodel.stream_gbps", refuse)
        with pytest.raises(Unpriced, match="no bandwidth"):
            SsbCostModel().price(self._traffic(), HANDCRAFTED_PMEM)


class TestHybridProfile:
    """The §9 future-work design: PMEM base tables, DRAM indexes."""

    def test_effective_index_media(self):
        from repro.memsim import MediaKind
        from repro.ssb.storage import HYBRID_PMEM_DRAM

        assert HYBRID_PMEM_DRAM.media is MediaKind.PMEM
        assert HYBRID_PMEM_DRAM.effective_index_media is MediaKind.DRAM
        assert HANDCRAFTED_PMEM.effective_index_media is MediaKind.PMEM

    def test_hybrid_probes_at_dram_speed(self, cost_model):
        from repro.ssb.storage import HYBRID_PMEM_DRAM

        hybrid = cost_model.random_read_gbps(HYBRID_PMEM_DRAM, 256, 64e6)
        pmem = cost_model.random_read_gbps(HANDCRAFTED_PMEM, 256, 64e6)
        assert hybrid > 1.5 * pmem

    def test_hybrid_scans_at_pmem_speed(self, cost_model):
        from repro.ssb.storage import HYBRID_PMEM_DRAM

        assert cost_model.scan_gbps(HYBRID_PMEM_DRAM) == pytest.approx(
            cost_model.scan_gbps(HANDCRAFTED_PMEM)
        )

    def test_hybrid_between_pmem_and_dram(self):
        from repro.ssb.runner import SsbRunner
        from repro.ssb.storage import HYBRID_PMEM_DRAM

        runner = SsbRunner(measured_sf=0.02, seed=5)
        pmem = runner.run(HANDCRAFTED_PMEM, target_sf=100).average_seconds
        hybrid = runner.run(HYBRID_PMEM_DRAM, target_sf=100).average_seconds
        dram = runner.run(HANDCRAFTED_DRAM, target_sf=100).average_seconds
        assert dram < hybrid < pmem

    def test_index_media_cannot_be_ssd(self):
        from repro.errors import ConfigurationError
        from repro.memsim import MediaKind

        with pytest.raises(ConfigurationError):
            HANDCRAFTED_PMEM.with_(index_media=MediaKind.SSD)
