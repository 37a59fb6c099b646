"""Tests for the PMEM endurance model."""

import pytest

from repro.errors import ConfigurationError
from repro.memsim import (
    DirectoryState,
    Op,
    PinningPolicy,
    StreamSpec,
    evaluate,
    paper_config,
)
from repro.memsim.counters import PerfCounters
from repro.memsim.wear import (
    DIMM_ENDURANCE_BYTES,
    WearEstimate,
    wear_from_counters,
)


class TestWearEstimate:
    def test_media_rate_includes_amplification(self):
        wear = WearEstimate(app_write_gbps=5.0, write_amplification=2.0)
        assert wear.media_write_gbps == 10.0

    def test_lifetime_scales_inversely_with_rate(self):
        slow = WearEstimate(app_write_gbps=1.0, write_amplification=1.0)
        fast = WearEstimate(app_write_gbps=10.0, write_amplification=1.0)
        assert slow.lifetime_years == pytest.approx(10 * fast.lifetime_years)

    def test_idle_device_lives_forever(self):
        wear = WearEstimate(app_write_gbps=0.0, write_amplification=1.0)
        assert wear.lifetime_years == float("inf")
        assert wear.within_warranty

    def test_sustained_peak_writes_approach_the_warranty_limit(self):
        # Writing at the full 13.2 GB/s around the clock exhausts the six
        # DIMMs' pooled endurance in ~4.2 years — just under the 5-year
        # warranty; any realistic duty cycle is safe.
        peak = WearEstimate(app_write_gbps=13.2, write_amplification=1.0)
        assert 3.5 < peak.lifetime_years < 5.0
        half_duty = WearEstimate(app_write_gbps=6.6, write_amplification=1.0)
        assert half_duty.within_warranty

    def test_far_write_amplification_destroys_lifetime(self):
        good = WearEstimate(app_write_gbps=5.0, write_amplification=1.0)
        bad = WearEstimate(app_write_gbps=5.0, write_amplification=10.0)
        assert bad.lifetime_years == pytest.approx(good.lifetime_years / 10)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WearEstimate(app_write_gbps=-1.0, write_amplification=1.0)
        with pytest.raises(ConfigurationError):
            WearEstimate(app_write_gbps=1.0, write_amplification=0.5)

    def test_describe(self):
        text = WearEstimate(app_write_gbps=5.0, write_amplification=2.0).describe()
        assert "GB/s media" in text
        assert "years" in text


class TestFromCounters:
    def test_uses_counter_amplification(self):
        counters = PerfCounters(
            app_bytes_written=100e9, media_bytes_written=400e9
        )
        wear = wear_from_counters(counters, elapsed_seconds=10.0)
        assert wear.app_write_gbps == pytest.approx(10.0)
        assert wear.write_amplification == pytest.approx(4.0)

    def test_integration_with_simulation(self):
        # Far writes at high thread counts carry the §4.4 amplification,
        # which shows up directly in the endurance estimate.
        config = paper_config()
        warm = DirectoryState.warm(config.topology)
        near = evaluate(
            config,
            [StreamSpec(op=Op.WRITE, threads=4, pinning=PinningPolicy.NUMA_REGION)],
            warm,
        )
        far = evaluate(
            config,
            [
                StreamSpec(
                    op=Op.WRITE, threads=18, pinning=PinningPolicy.NUMA_REGION,
                    issuing_socket=0, target_socket=1,
                )
            ],
            warm,
        )
        near_wear = wear_from_counters(near.counters, elapsed_seconds=100.0)
        far_wear = wear_from_counters(far.counters, elapsed_seconds=100.0)
        assert far_wear.write_amplification > 5 * near_wear.write_amplification
        assert far_wear.lifetime_years < near_wear.lifetime_years

    def test_invalid_elapsed(self):
        with pytest.raises(ConfigurationError):
            wear_from_counters(PerfCounters(), elapsed_seconds=0.0)

    def test_endurance_constant_sane(self):
        # 292 PB over 5 years ~= 1.85 GB/s of sustained media writes.
        sustained = DIMM_ENDURANCE_BYTES / (5 * 365 * 24 * 3600) / 1e9
        assert 1.0 < sustained < 3.0
