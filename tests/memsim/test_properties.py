"""Property-based tests of the memory-subsystem model invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim import (
    DirectoryState,
    Layout,
    MediaKind,
    Pattern,
    evaluate,
    paper_config,
    read_stream,
    write_stream,
)
from repro.memsim.address import InterleaveMap
from repro.memsim.buffers import WriteCombiningModel
from repro.memsim.calibration import paper_calibration
from repro.memsim.imc import ImcModel
from repro.units import GIB

_CAL = paper_calibration()
PAPER = paper_config()
WARM = DirectoryState.warm(PAPER.topology)
REGION = 2 * GIB  # the §5.2 hash-index region


def gbps(*streams, directory=None):
    """Total GB/s of ``streams`` evaluated together on the paper machine."""
    return evaluate(PAPER, streams, directory).total_gbps

access_sizes = st.sampled_from([64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 65536])
thread_counts = st.integers(min_value=1, max_value=36)
layouts = st.sampled_from([Layout.GROUPED, Layout.INDIVIDUAL])


class TestBandwidthBounds:
    @given(threads=thread_counts, size=access_sizes, layout=layouts)
    @settings(max_examples=60, deadline=None)
    def test_read_bandwidth_within_device_limits(self, threads, size, layout):
        bw = gbps(read_stream(threads, access_size=size, layout=layout))
        assert math.isfinite(bw)
        assert 0 < bw <= _CAL.pmem.seq_read_max * 1.001

    @given(threads=thread_counts, size=access_sizes, layout=layouts)
    @settings(max_examples=60, deadline=None)
    def test_write_bandwidth_within_device_limits(self, threads, size, layout):
        bw = gbps(write_stream(threads, access_size=size, layout=layout))
        assert math.isfinite(bw)
        assert 0 < bw <= _CAL.pmem.seq_write_max * 1.001

    @given(threads=thread_counts, size=access_sizes)
    @settings(max_examples=40, deadline=None)
    def test_writes_never_beat_reads(self, threads, size):
        # The device's fundamental asymmetry must hold everywhere.
        read = gbps(read_stream(threads, access_size=size))
        write = gbps(write_stream(threads, access_size=size))
        assert write <= read * 1.001

    @given(threads=thread_counts, size=access_sizes)
    @settings(max_examples=40, deadline=None)
    def test_pmem_never_beats_dram(self, threads, size):
        pmem = gbps(read_stream(threads, access_size=size))
        dram = gbps(read_stream(threads, access_size=size, media=MediaKind.DRAM))
        assert pmem <= dram * 1.001

    @given(threads=thread_counts, size=st.sampled_from([64, 256, 1024, 4096, 8192]))
    @settings(max_examples=40, deadline=None)
    def test_random_never_beats_sequential(self, threads, size):
        rand = gbps(read_stream(
            threads, access_size=size, pattern=Pattern.RANDOM, region_bytes=REGION
        ))
        seq = gbps(read_stream(max(threads, 18), access_size=max(size, 4096)))
        assert rand <= seq * 1.001


class TestFarVsNear:
    @given(threads=thread_counts)
    @settings(max_examples=30, deadline=None)
    def test_far_reads_never_beat_near(self, threads):
        near = gbps(read_stream(threads))
        far = gbps(read_stream(threads, target_socket=1), directory=WARM)
        assert far <= near * 1.001

    @given(threads=thread_counts)
    @settings(max_examples=30, deadline=None)
    def test_cold_far_never_beats_warm_far(self, threads):
        far = read_stream(threads, target_socket=1)
        cold = gbps(far, directory=DirectoryState.cold())
        warm = gbps(far, directory=WARM)
        assert cold <= warm * 1.001

    @given(threads=thread_counts)
    @settings(max_examples=30, deadline=None)
    def test_far_writes_never_beat_near(self, threads):
        near = gbps(write_stream(threads))
        far = gbps(write_stream(threads, target_socket=1))
        assert far <= near * 1.001


class TestInterleaveProperties:
    @given(
        ways=st.integers(min_value=1, max_value=12),
        address=st.integers(min_value=0, max_value=1 << 40),
        size=st.integers(min_value=1, max_value=1 << 22),
    )
    @settings(max_examples=80, deadline=None)
    def test_dimms_touched_bounds(self, ways, address, size):
        interleave = InterleaveMap(ways=ways)
        touched = interleave.dimms_touched(address, size)
        assert 1 <= len(touched) <= ways
        assert all(0 <= d < ways for d in touched)

    @given(
        ways=st.integers(min_value=1, max_value=12),
        address=st.integers(min_value=0, max_value=1 << 40),
    )
    @settings(max_examples=80, deadline=None)
    def test_dimm_of_consistent_with_touched(self, ways, address):
        interleave = InterleaveMap(ways=ways)
        assert interleave.dimm_of(address) in interleave.dimms_touched(address, 1)

    @given(
        window=st.floats(min_value=1.0, max_value=1e12, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_window_parallelism_bounds(self, window):
        interleave = InterleaveMap(ways=6)
        parallelism = interleave.window_parallelism(window)
        assert 1.0 <= parallelism <= 6.0


class TestWriteCombiningProperties:
    wc = WriteCombiningModel(_CAL.pmem)

    @given(threads=thread_counts, size=access_sizes)
    @settings(max_examples=60, deadline=None)
    def test_efficiency_in_unit_interval(self, threads, size):
        eff = self.wc.efficiency(threads, size)
        assert _CAL.pmem.wc_floor - 1e-9 <= eff <= 1.0

    @given(threads=thread_counts, size=access_sizes)
    @settings(max_examples=60, deadline=None)
    def test_amplification_at_least_one(self, threads, size):
        for grouped in (False, True):
            assert self.wc.write_amplification(threads, size, grouped) >= 1.0 - 1e-9

    @given(
        t1=thread_counts, t2=thread_counts, size=access_sizes,
    )
    @settings(max_examples=60, deadline=None)
    def test_efficiency_antitone_in_threads(self, t1, t2, size):
        lo, hi = sorted((t1, t2))
        assert self.wc.efficiency(lo, size) >= self.wc.efficiency(hi, size) - 1e-9


class TestImcProperties:
    imc = ImcModel()

    @given(
        offered=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        service=st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_occupancy_in_unit_interval(self, offered, service):
        assert 0.0 <= self.imc.occupancy(offered, service) <= 1.0
