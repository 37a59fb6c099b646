"""Workload-stream specifications consumed by the bandwidth models.

A :class:`StreamSpec` describes one homogeneous group of threads doing one
kind of memory access — the unit in which the paper's benchmarks are
parameterised (op, access size, thread count, grouped/individual layout,
pinning policy, near/far placement, media). Multi-socket and mixed
read/write experiments are lists of streams evaluated together.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields

from repro.errors import WorkloadError
from repro.memsim.address import DaxMode
from repro.memsim.constants import CACHE_LINE, DEFAULT_SWEEP_BYTES
from repro.memsim.scheduler import PinningPolicy
from repro.memsim.topology import MediaKind


class Op(enum.Enum):
    """Direction of a memory access stream."""

    READ = "read"
    WRITE = "write"


class Pattern(enum.Enum):
    """Spatial pattern of the stream."""

    SEQUENTIAL = "sequential"
    RANDOM = "random"


class Layout(enum.Enum):
    """How threads divide a sequential region (paper §3.1).

    GROUPED: accesses interleave across threads so the group produces one
    global sequential stream (thread 1 reads bytes 0-255, thread 2 reads
    from 256, ...).

    INDIVIDUAL: each thread owns a disjoint contiguous region (thread 1
    reads GB 0-1, thread 2 reads GB 1-2, ...).
    """

    GROUPED = "grouped"
    INDIVIDUAL = "individual"


@dataclass(frozen=True)
class StreamSpec:
    """One homogeneous group of threads accessing one memory target."""

    op: Op
    threads: int
    access_size: int = 4096
    media: MediaKind = MediaKind.PMEM
    pattern: Pattern = Pattern.SEQUENTIAL
    layout: Layout = Layout.INDIVIDUAL
    pinning: PinningPolicy = PinningPolicy.CORES
    issuing_socket: int = 0
    target_socket: int = 0
    #: Size of the memory region the stream touches. Random-access
    #: bandwidth depends on it for DRAM (§5.2: a 2 GB region lives on one
    #: NUMA node and engages only half the channels).
    region_bytes: int = DEFAULT_SWEEP_BYTES
    #: Total volume moved; used for counter accounting and for amortising
    #: fsdax page-fault costs. Defaults to the paper's 70 GB sweeps.
    total_bytes: int = DEFAULT_SWEEP_BYTES
    dax_mode: DaxMode = DaxMode.DEVDAX
    prefaulted: bool = False

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise WorkloadError(f"thread count must be >= 1, got {self.threads}")
        if self.access_size < CACHE_LINE:
            raise WorkloadError(
                f"access size must be >= one cache line ({CACHE_LINE} B), "
                f"got {self.access_size}"
            )
        if self.region_bytes <= 0:
            raise WorkloadError("region size must be positive")
        if self.total_bytes <= 0:
            raise WorkloadError("total volume must be positive")
        if self.issuing_socket < 0 or self.target_socket < 0:
            raise WorkloadError("socket ids must be non-negative")
        if self.media is MediaKind.SSD:
            raise WorkloadError(
                "StreamSpec models byte-addressable memory; use "
                "repro.memsim.ssd for block-device bandwidth"
            )
        # Hashed once, as MachineConfig is: every cache lookup hashes its
        # request's streams, and hashing thirteen fields (six of them
        # enums) per lookup dominated the cost of a request key. The
        # tuple lists the fields in declaration order, as fields() does.
        object.__setattr__(self, "_cached_hash", hash((
            self.op, self.threads, self.access_size, self.media,
            self.pattern, self.layout, self.pinning, self.issuing_socket,
            self.target_socket, self.region_bytes, self.total_bytes,
            self.dax_mode, self.prefaulted,
        )))

    def __hash__(self) -> int:
        return self._cached_hash  # type: ignore[attr-defined]

    @property
    def far(self) -> bool:
        """True when the stream crosses sockets (data over UPI)."""
        return self.issuing_socket != self.target_socket

    @property
    def is_read(self) -> bool:
        return self.op is Op.READ

    def with_(self, **changes: object) -> "StreamSpec":
        """Return a copy with fields replaced (convenience for sweeps).

        Builds what :func:`dataclasses.replace` builds, at about half the
        cost; ``__init__`` rejects an unknown field name with ``TypeError``.
        """
        values = self.__dict__
        return StreamSpec(
            *[changes.pop(name) if name in changes else values[name]
              for name in _FIELD_NAMES],
            **changes,
        )


#: Field names in declaration order, the positional order of ``__init__``.
_FIELD_NAMES = tuple(spec_field.name for spec_field in fields(StreamSpec))


def read_stream(threads: int, **kwargs: object) -> StreamSpec:
    """Shorthand for a sequential read stream."""
    return StreamSpec(op=Op.READ, threads=threads, **kwargs)


def write_stream(threads: int, **kwargs: object) -> StreamSpec:
    """Shorthand for a sequential write stream."""
    return StreamSpec(op=Op.WRITE, threads=threads, **kwargs)
