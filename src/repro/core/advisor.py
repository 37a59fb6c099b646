"""Placement advisor: turn a workload description into a configuration.

This is the user-facing form of the paper's contribution: an OLAP system
designer describes the workload (read/write mix, concurrency budget,
whether access sizes are negotiable, socket count) and the advisor
returns a concrete configuration — thread counts, access sizes, pinning,
data placement, dax mode — with the best practices each choice derives
from, plus the bandwidths the model predicts for it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.best_practices import get_practice
from repro.core.optimizer import TuningSpace, tune
from repro.errors import ConfigurationError
from repro.memsim import DaxMode, Layout, MachineConfig, PinningPolicy
from repro.memsim.spec import Op


class AccessProfile(enum.Enum):
    """Dominant access pattern of the workload."""

    SCAN_HEAVY = "scan_heavy"          # full-table scans (QF1-style)
    JOIN_HEAVY = "join_heavy"          # hash probes dominate
    INGEST = "ingest"                  # bulk sequential writes
    MIXED = "mixed"                    # concurrent scans + ingestion


@dataclass(frozen=True)
class WorkloadIntent:
    """What the system designer knows about the workload."""

    profile: AccessProfile
    #: Threads the application can dedicate per socket.
    threads_per_socket: int = 36
    #: Sockets whose PMEM may hold data.
    sockets: int = 2
    #: Whether the application controls thread-to-core assignment.
    full_system_control: bool = True
    #: Whether a filesystem interface is required (forces fsdax).
    needs_filesystem: bool = False
    #: Smallest access unit the application can batch writes into.
    min_write_granularity: int = 64

    def __post_init__(self) -> None:
        if self.threads_per_socket < 1:
            raise ConfigurationError("need at least one thread per socket")
        if self.sockets < 1:
            raise ConfigurationError("need at least one socket")
        if self.min_write_granularity < 1:
            raise ConfigurationError("write granularity must be positive")


@dataclass
class Recommendation:
    """Concrete configuration plus its provenance."""

    read_threads: int
    write_threads: int
    read_access_size: int
    write_access_size: int
    layout: Layout
    pinning: PinningPolicy
    dax_mode: DaxMode
    stripe_across_sockets: bool
    replicate_small_tables: bool
    serialize_read_write_phases: bool
    expected_read_gbps: float
    expected_write_gbps: float
    practices: list[int] = field(default_factory=list)
    rationale: list[str] = field(default_factory=list)

    def cite(self, practice_number: int, reason: str) -> None:
        if practice_number not in self.practices:
            self.practices.append(practice_number)
        self.rationale.append(f"(BP{practice_number}) {reason}")

    def describe(self) -> str:
        lines = [
            "Recommended PMEM configuration:",
            f"  read threads/socket : {self.read_threads}",
            f"  write threads/socket: {self.write_threads}",
            f"  read access size    : {self.read_access_size} B",
            f"  write access size   : {self.write_access_size} B",
            f"  layout              : {self.layout.value}",
            f"  pinning             : {self.pinning.value}",
            f"  dax mode            : {self.dax_mode.value}",
            f"  stripe across sockets: {self.stripe_across_sockets}",
            f"  replicate small tables: {self.replicate_small_tables}",
            f"  serialize R/W phases : {self.serialize_read_write_phases}",
            f"  expected read  : {self.expected_read_gbps:.1f} GB/s per socket",
            f"  expected write : {self.expected_write_gbps:.1f} GB/s per socket",
            "Why:",
        ]
        lines.extend(f"  {r}" for r in self.rationale)
        return "\n".join(lines)


class PlacementAdvisor:
    """Derives configurations from the bandwidth model and the practices."""

    def __init__(self, config: MachineConfig | None = None) -> None:
        self.config = config

    def recommend(self, intent: WorkloadIntent) -> Recommendation:
        """Produce a configuration for ``intent``.

        The numeric knobs come from the tuner (so they are optimal under
        the model, not hard-coded); the structural choices (striping,
        replication, serialization) apply the paper's practices 1, 4, 5.
        """
        pinning = (
            PinningPolicy.CORES
            if intent.full_system_control
            else PinningPolicy.NUMA_REGION
        )
        space = TuningSpace(
            thread_counts=tuple(
                t for t in (1, 2, 4, 6, 8, 12, 16, 18, 24, 36)
                if t <= intent.threads_per_socket
            ),
            pinnings=(pinning,),
        )
        read_best = tune(Op.READ, config=self.config, space=space).best
        write_space = TuningSpace(
            access_sizes=tuple(
                s for s in (64, 256, 1024, 4096, 16384)
                if s >= intent.min_write_granularity
            ) or (intent.min_write_granularity,),
            thread_counts=space.thread_counts,
            layouts=(Layout.INDIVIDUAL,),
            pinnings=(pinning,),
        )
        write_best = tune(Op.WRITE, config=self.config, space=write_space).best

        rec = Recommendation(
            read_threads=read_best.spec.threads,
            write_threads=write_best.spec.threads,
            read_access_size=read_best.spec.access_size,
            write_access_size=write_best.spec.access_size,
            layout=Layout.INDIVIDUAL,
            pinning=pinning,
            dax_mode=DaxMode.FSDAX if intent.needs_filesystem else DaxMode.DEVDAX,
            stripe_across_sockets=intent.sockets > 1,
            replicate_small_tables=intent.sockets > 1
            and intent.profile in (AccessProfile.JOIN_HEAVY, AccessProfile.SCAN_HEAVY),
            serialize_read_write_phases=intent.profile is AccessProfile.MIXED,
            expected_read_gbps=read_best.gbps,
            expected_write_gbps=write_best.gbps,
        )

        rec.cite(1, "reads and writes use distinct, individual memory regions")
        rec.cite(
            2,
            f"reads scale to {rec.read_threads} threads; writes are capped "
            f"at {rec.write_threads} per socket",
        )
        rec.cite(
            3,
            "threads pinned to "
            + ("individual cores (full system control)"
               if pinning is PinningPolicy.CORES
               else "NUMA regions (no full system control)"),
        )
        if rec.stripe_across_sockets:
            rec.cite(
                4,
                "data striped across all sockets' PMEM; every thread touches "
                "only near memory",
            )
        if rec.replicate_small_tables:
            rec.cite(4, "small (dimension) tables replicated per socket to avoid "
                        "far random access")
        if rec.serialize_read_write_phases:
            rec.cite(5, "mixed workload: ingestion and scan phases serialized")
        rec.cite(
            6,
            f"write access size {rec.write_access_size} B"
            + (" (4 KB DIMM-interleave aligned)" if rec.write_access_size == 4096
               else " (256 B media-line aligned)" if rec.write_access_size == 256
               else ""),
        )
        if rec.dax_mode is DaxMode.DEVDAX:
            rec.cite(7, "devdax avoids page faults and filesystem overhead")
        else:
            rec.rationale.append(
                "(BP7 waived) filesystem interface required; fsdax costs "
                "5-10% bandwidth — pre-fault pages to recover it"
            )
        # Validate each cited practice actually holds in the model.
        for number in rec.practices:
            get_practice(number)
        return rec
