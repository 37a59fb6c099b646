"""Tests for the UPI link and coherence-directory model."""

import pytest

from repro.errors import SimulationError, WorkloadError
from repro.memsim.calibration import paper_calibration
from repro.memsim.config import DirectoryState
from repro.memsim.upi import UpiModel


@pytest.fixture(scope="module")
def cal():
    return paper_calibration()


@pytest.fixture(scope="module")
def upi(cal):
    return UpiModel(cal.upi, cal.pmem)


class TestDirectory:
    def test_local_access_is_always_warm(self):
        directory = DirectoryState.cold()
        assert directory.is_warm(0, 0)

    def test_far_access_starts_cold(self):
        directory = DirectoryState.cold()
        assert not directory.is_warm(0, 1)

    def test_touch_warms_the_pair(self):
        directory = DirectoryState.cold()
        directory = directory.touch(0, 1)
        assert directory.is_warm(0, 1)

    def test_warmth_is_directional(self):
        directory = DirectoryState.cold()
        directory = directory.touch(0, 1)
        assert not directory.is_warm(1, 0)

    def test_single_thread_priming_counts(self):
        # §3.4: a single-threaded far read eliminates the multi-threaded
        # warm-up penalty — any touch warms the pair.
        directory = DirectoryState.cold()
        directory = directory.touch(0, 1)
        assert directory.is_warm(0, 1)

    def test_invalidate_by_home_socket(self):
        directory = DirectoryState.cold()
        directory = directory.touch(0, 1)
        directory = directory.touch(1, 0)
        directory = directory.invalidate(1)
        assert not directory.is_warm(0, 1)
        assert directory.is_warm(1, 0)


class TestColdFarCap:
    def test_peaks_at_four_threads(self, upi, cal):
        caps = {t: upi.cold_far_read_cap(t) for t in (1, 2, 4, 8, 18, 36)}
        best = max(caps, key=caps.get)
        assert best == cal.pmem.cold_far_read_best_threads

    def test_peak_value(self, upi, cal):
        assert upi.cold_far_read_cap(4) == pytest.approx(cal.pmem.cold_far_read_max)

    def test_decays_beyond_optimum(self, upi):
        assert upi.cold_far_read_cap(18) < upi.cold_far_read_cap(4)
        assert upi.cold_far_read_cap(36) < upi.cold_far_read_cap(18)

    def test_invalid_threads(self, upi):
        with pytest.raises(WorkloadError):
            upi.cold_far_read_cap(0)


class TestWarmFarCap:
    def test_pmem_warm_far_around_33(self, upi, cal):
        cap = upi.warm_far_read_cap(cal.pmem.warm_far_read_max)
        assert cap == pytest.approx(33.0, abs=0.5)

    def test_binding_constraint_is_minimum(self, upi):
        assert upi.warm_far_read_cap(10.0) == 10.0

    def test_invalid_media_cap(self, upi):
        with pytest.raises(SimulationError):
            upi.warm_far_read_cap(0.0)


class TestUtilization:
    def test_zero_payload(self, upi):
        assert upi.utilization(0.0) == 0.0

    def test_metadata_inflates_utilization(self, upi, cal):
        payload = 20.0
        utilization = upi.utilization(payload)
        assert utilization > payload / cal.upi.raw_per_direction

    def test_capped_at_one(self, upi):
        assert upi.utilization(1000.0) == 1.0

    def test_negative_rejected(self, upi):
        with pytest.raises(SimulationError):
            upi.utilization(-1.0)
