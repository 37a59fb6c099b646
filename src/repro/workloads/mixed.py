"""Mixed read/write workload grid of §5.1 (Fig. 11)."""

from __future__ import annotations

from repro.memsim.constants import DEFAULT_SWEEP_BYTES
from repro.memsim.scheduler import PinningPolicy
from repro.memsim.spec import Op, StreamSpec
from repro.memsim.topology import MediaKind
from repro.units import GIB
from repro.workloads.grids import SweepGrid, SweepPoint

#: The writer counts of Fig. 11.
PAPER_WRITE_COUNTS: tuple[int, ...] = (1, 4, 6)

#: The reader counts of Fig. 11.
PAPER_READ_COUNTS: tuple[int, ...] = (1, 8, 18, 30)


def mixed_streams(
    write_threads: int,
    read_threads: int,
    *,
    access_size: int = 4096,
    media: MediaKind = MediaKind.PMEM,
    total_bytes: int = DEFAULT_SWEEP_BYTES,
) -> tuple[StreamSpec, StreamSpec]:
    """The (write, read) stream pair of one §5.1 mixed run.

    Both sides use individual accesses to disjoint data on the *same*
    DIMMs, pinned to the NUMA region.
    """
    def stream(op: Op, threads: int) -> StreamSpec:
        return StreamSpec(
            op=op,
            threads=threads,
            access_size=access_size,
            media=media,
            pinning=PinningPolicy.NUMA_REGION,
            total_bytes=total_bytes,
        )

    return stream(Op.WRITE, write_threads), stream(Op.READ, read_threads)


def mixed_grid(
    *,
    write_counts: tuple[int, ...] = PAPER_WRITE_COUNTS,
    read_counts: tuple[int, ...] = PAPER_READ_COUNTS,
    media: MediaKind = MediaKind.PMEM,
    access_size: int = 4096,
) -> SweepGrid:
    """x write / y read thread combinations on one socket's DIMMs.

    Matches the paper's setup: both sides use individual 4 KB access to
    disjoint 40 GB datasets on the *same* PMEM DIMMs, pinned to the NUMA
    region, at most 36 threads total.
    """
    points = []
    for writers in write_counts:
        for readers in read_counts:
            points.append(
                SweepPoint(
                    label=f"{writers}/{readers}",
                    params={"write_threads": writers, "read_threads": readers},
                    streams=mixed_streams(
                        writers,
                        readers,
                        access_size=access_size,
                        media=media,
                        total_bytes=40 * GIB,
                    ),
                )
            )
    return SweepGrid(name=f"mixed-{media.value}", points=tuple(points))
