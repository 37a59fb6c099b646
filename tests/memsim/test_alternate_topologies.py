"""Robustness: the model works on non-paper topologies too.

The library claims to model a *family* of servers, not one machine;
these tests exercise single-socket and denser configurations.
"""

import pytest

from repro.errors import TopologyError
from repro.memsim import (
    DirectoryState,
    MachineConfig,
    MediaKind,
    Op,
    StreamSpec,
    build_topology,
    evaluate,
    read_stream,
    write_stream,
)
from repro.memsim.scheduler import PinningPolicy
from repro.units import GIB
from repro.workloads import mixed_streams


def gbps(config, stream):
    return evaluate(config, (stream,)).total_gbps


@pytest.fixture(scope="module")
def single_socket():
    return MachineConfig(topology=build_topology(sockets=1))


@pytest.fixture(scope="module")
def big_socket():
    # A hypothetical 28-core part with the same memory complement.
    return MachineConfig(topology=build_topology(physical_cores_per_socket=28))


class TestSingleSocket:
    def test_near_access_works(self, single_socket):
        assert gbps(single_socket, read_stream(18)) == pytest.approx(40.0, rel=0.05)
        assert gbps(single_socket, write_stream(4)) == pytest.approx(12.6, rel=0.05)

    def test_far_access_rejected(self, single_socket):
        with pytest.raises(TopologyError):
            evaluate(
                single_socket,
                [
                    StreamSpec(
                        op=Op.READ, threads=18,
                        issuing_socket=0, target_socket=1,
                    )
                ]
            )

    def test_mixed_works(self, single_socket):
        outcome = evaluate(single_socket, mixed_streams(4, 18))
        assert outcome.read_gbps > 0
        assert outcome.write_gbps > 0

    def test_warm_directory_is_noop(self, single_socket):
        # One socket has no far pairs to warm.
        assert DirectoryState.warm(single_socket.topology) == DirectoryState.cold()


class TestBiggerSocket:
    def test_more_cores_saturate_earlier_relative(self, big_socket):
        # The device cap is unchanged; extra cores only add issue width.
        assert gbps(big_socket, read_stream(28)) == pytest.approx(40.0, rel=0.05)

    def test_hyperthread_penalty_tracks_core_count(self, big_socket):
        # 42 threads on 28 cores is the imbalanced case now.
        b28 = gbps(big_socket, read_stream(28))
        b42 = gbps(big_socket, read_stream(42))
        assert b42 <= b28

    def test_pinning_behaviour_preserved(self, big_socket):
        pinned = gbps(big_socket, read_stream(28))
        unpinned = gbps(big_socket, read_stream(28, pinning=PinningPolicy.NONE))
        assert pinned > 3 * unpinned


class TestCustomCapacity:
    def test_larger_dimms_change_capacity_not_bandwidth(self):
        big = MachineConfig(topology=build_topology(pmem_dimm_capacity=512 * GIB))
        small = MachineConfig(topology=build_topology(pmem_dimm_capacity=128 * GIB))
        assert big.topology.capacity(MediaKind.PMEM) == 4 * small.topology.capacity(
            MediaKind.PMEM
        )
        assert gbps(big, read_stream(18)) == gbps(small, read_stream(18))
