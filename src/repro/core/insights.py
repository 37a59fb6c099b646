"""The paper's twelve numbered insights, as machine-checkable claims.

Each :class:`Insight` carries the verbatim statement from the paper and a
``check`` predicate that verifies the claim *holds in the model* — the
reproduction treats the insights as falsifiable outputs, not as inputs.
``verify_all`` is run by the test suite and by the best-practices
benchmark; a failing insight means the mechanistic model no longer
supports the paper's conclusion.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.memsim import (
    DirectoryState,
    Layout,
    MachineConfig,
    MixedOutcome,
    Pattern,
    PinningPolicy,
    paper_config,
    read_stream,
    write_stream,
)
from repro.sweep import default_service, stream_gbps
from repro.workloads.mixed import mixed_streams
from repro.workloads.random_ import DEFAULT_REGION


@dataclass(frozen=True)
class Insight:
    """One numbered insight from the paper."""

    number: int
    section: str
    statement: str
    check: Callable[[MachineConfig], bool]


def _insight_1(c: MachineConfig) -> bool:
    # Individual regions are size-insensitive and fast; grouped access
    # peaks at 4 KB.
    individual = [
        stream_gbps(c, (read_stream(18, access_size=s),))
        for s in (64, 256, 4096, 65536)
    ]
    grouped_best = max(
        (64, 256, 1024, 4096, 16384),
        key=lambda s: stream_gbps(
            c, (read_stream(36, access_size=s, layout=Layout.GROUPED),)
        ),
    )
    return min(individual) > 0.85 * max(individual) and grouped_best == 4096


def _insight_2(c: MachineConfig) -> bool:
    # All cores needed to saturate; hyperthreaded reads do not help.
    return (
        stream_gbps(c, (read_stream(18),)) > stream_gbps(c, (read_stream(8),))
        and stream_gbps(c, (read_stream(24),)) <= stream_gbps(c, (read_stream(18),))
    )


def _insight_3(c: MachineConfig) -> bool:
    pinned = stream_gbps(c, (read_stream(18),))
    unpinned = stream_gbps(c, (read_stream(18, pinning=PinningPolicy.NONE),))
    return pinned > 3.0 * unpinned


def _insight_4(c: MachineConfig) -> bool:
    far = (read_stream(18, target_socket=1),)
    cold = stream_gbps(c, far, DirectoryState.cold())
    warm = stream_gbps(c, far, DirectoryState.warm(c.topology))
    near = stream_gbps(c, (read_stream(18),))
    return near > warm > cold


def _insight_5(c: MachineConfig) -> bool:
    near = read_stream(18, pinning=PinningPolicy.NUMA_REGION)
    two_near = stream_gbps(
        c, (near, near.with_(issuing_socket=1, target_socket=1))
    )
    two_far = stream_gbps(
        c,
        (
            near.with_(issuing_socket=0, target_socket=1),
            near.with_(issuing_socket=1, target_socket=0),
        ),
        DirectoryState.warm(c.topology),
    )
    one_near = stream_gbps(c, (near,))
    return two_near > 1.9 * one_near and two_near > 1.4 * two_far


def _insight_6(c: MachineConfig) -> bool:
    best = max(
        (64, 256, 1024, 4096, 16384, 65536),
        key=lambda s: stream_gbps(
            c, (write_stream(6, access_size=s, layout=Layout.GROUPED),)
        ),
    )
    small_best = max(
        (64, 128, 256, 512),
        key=lambda s: stream_gbps(
            c, (write_stream(24, access_size=s, layout=Layout.GROUPED),)
        ),
    )
    return best == 4096 and small_best == 256


def _insight_7(c: MachineConfig) -> bool:
    # 4-6 threads for large blocks; small accesses tolerate scaling.
    large_best = max(
        (1, 2, 4, 6, 8, 18, 36),
        key=lambda t: stream_gbps(c, (write_stream(t, access_size=65536),)),
    )
    small_ok = stream_gbps(
        c, (write_stream(36, access_size=256),)
    ) >= 0.8 * stream_gbps(c, (write_stream(18, access_size=256),))
    return large_best in (4, 6) and small_ok


def _insight_8(c: MachineConfig) -> bool:
    cores = stream_gbps(c, (write_stream(24),))
    numa = stream_gbps(
        c, (write_stream(24, pinning=PinningPolicy.NUMA_REGION),)
    )
    none = stream_gbps(c, (write_stream(24, pinning=PinningPolicy.NONE),))
    return cores >= numa > none


def _insight_9(c: MachineConfig) -> bool:
    near = max(stream_gbps(c, (write_stream(t),)) for t in (4, 6, 8))
    far = max(
        stream_gbps(c, (write_stream(t, target_socket=1),)) for t in (4, 6, 8, 18)
    )
    return near > 1.5 * far


def _insight_10(c: MachineConfig) -> bool:
    near = write_stream(4, pinning=PinningPolicy.NUMA_REGION)
    contended = stream_gbps(
        c, (near, near.with_(threads=8, issuing_socket=1, target_socket=0))
    )
    alone = stream_gbps(c, (near,))
    return contended < alone


def _insight_11(c: MachineConfig) -> bool:
    # Mixing reads and writes costs both sides heavily: serialize when
    # latency allows.
    write, read = mixed_streams(6, 18)
    both = default_service().evaluate(c, (write, read))
    out = MixedOutcome(
        read_gbps=both.read_gbps,
        write_gbps=both.write_gbps,
        read_alone_gbps=stream_gbps(c, (read,)),
        write_alone_gbps=stream_gbps(c, (write,)),
    )
    return out.read_retention < 0.5 and out.write_retention < 0.5


def _insight_12(c: MachineConfig) -> bool:
    def random_read(size: int) -> float:
        spec = read_stream(
            36, access_size=size, pattern=Pattern.RANDOM, region_bytes=DEFAULT_REGION
        )
        return stream_gbps(c, (spec,))

    sequential_beats_random = stream_gbps(c, (read_stream(36),)) > random_read(4096)
    bigger_random_better = random_read(4096) > random_read(256)
    return sequential_beats_random and bigger_random_better


ALL_INSIGHTS: tuple[Insight, ...] = (
    Insight(1, "3.1", "Read data from individual memory regions or in consecutive "
                      "4 KB chunks to benefit from prefetching and an even "
                      "thread-to-DIMM distribution.", _insight_1),
    Insight(2, "3.2", "Use all available cores for maximum read bandwidth and "
                      "avoid hyperthreaded reads.", _insight_2),
    Insight(3, "3.3", "Pin threads to avoid far-memory access.", _insight_3),
    Insight(4, "3.4", "Threads should only read data on their near socket PMEM. "
                      "If this is not possible, the assignment of address spaces "
                      "to NUMA regions should change as rarely as possible.", _insight_4),
    Insight(5, "3.5", "If possible, stripe data into independent and evenly "
                      "distributed data sets across the PMEM of all sockets and "
                      "ensure that sockets read only from near PMEM.", _insight_5),
    Insight(6, "4.1", "Write data in 4 KB chunks to achieve the highest bandwidth "
                      "or in 256 Byte chunks if smaller consecutive writes are "
                      "necessary.", _insight_6),
    Insight(7, "4.2", "Use 4-6 threads to write to PMEM in large blocks or keep "
                      "the access small when scaling the number of threads.", _insight_7),
    Insight(8, "4.3", "Pin write-threads to individual cores if you have full "
                      "system control. Otherwise, pin them to NUMA regions.", _insight_8),
    Insight(9, "4.4", "Threads should only write data to their near PMEM.", _insight_9),
    Insight(10, "4.5", "Avoid contending cross-socket writes.", _insight_10),
    Insight(11, "5.1", "Serialize PMEM access when possible.", _insight_11),
    Insight(12, "5.2", "Access PMEM sequentially or use the largest possible "
                       "access for random workloads.", _insight_12),
)


def get_insight(number: int) -> Insight:
    """Look up an insight by its paper number (1-12)."""
    for insight in ALL_INSIGHTS:
        if insight.number == number:
            return insight
    raise KeyError(f"no insight #{number}; the paper defines 1-12")


def verify_all(config: MachineConfig | None = None) -> dict[int, bool]:
    """Check every insight against ``config``; return {number: holds}.

    ``config`` defaults to :func:`~repro.memsim.paper_config`.
    """
    config = config if config is not None else paper_config()
    return {insight.number: insight.check(config) for insight in ALL_INSIGHTS}
