"""Memory Mode: DRAM as an inaccessible "L4" cache in front of PMEM.

§2.1 describes Optane's second operating mode: *Memory Mode* exposes
PMEM as plain volatile main memory while the installed DRAM becomes a
direct-mapped cache the application cannot see or control. The paper
studies App Direct (all other modules here); this model covers the mode
the paper describes but does not benchmark, so that the library can
answer "what would Memory Mode have done?" for any workload.

Behaviour modeled:

* accesses that hit the DRAM cache run at DRAM speed; misses pay a DRAM
  tag check plus the PMEM access, and (for writes, or for reads evicting
  dirty lines) a writeback;
* the hit rate is a function of working-set size vs. DRAM capacity and
  of the access pattern — streaming scans larger than DRAM get no reuse
  at all, uniform random working sets hit with probability
  ``dram / working_set``;
* persistence is *not* provided: dirty lines live in DRAM (§2.1: "this
  mode does not guarantee persistency"), which
  :func:`MemoryModeModel.is_persistent` reports accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, WorkloadError
from repro.memsim.config import MachineConfig, paper_config
from repro.memsim.evaluation import evaluate
from repro.memsim.spec import Pattern, StreamSpec, read_stream, write_stream
from repro.memsim.topology import MediaKind
from repro.units import GIB


@dataclass(frozen=True)
class MemoryModeConfig:
    """How much of PMEM/DRAM participates in Memory Mode on one socket."""

    dram_cache_bytes: int = 93 * GIB  # the paper's 6 x 16 GB per socket
    pmem_bytes: int = 768 * GIB       # 6 x 128 GB per socket

    def __post_init__(self) -> None:
        if self.dram_cache_bytes <= 0 or self.pmem_bytes <= 0:
            raise ConfigurationError("capacities must be positive")
        if self.dram_cache_bytes >= self.pmem_bytes:
            raise ConfigurationError(
                "Memory Mode needs PMEM larger than the DRAM cache"
            )


class MemoryModeModel:
    """Effective bandwidth of a Memory Mode socket for simple workloads."""

    def __init__(
        self,
        machine: MachineConfig | None = None,
        config: MemoryModeConfig | None = None,
    ) -> None:
        self.machine = machine if machine is not None else paper_config()
        self.config = config if config is not None else MemoryModeConfig()

    def _gbps(self, spec: StreamSpec) -> float:
        """App Direct bandwidth of one stream on the machine, GB/s."""
        return evaluate(self.machine, (spec,)).total_gbps

    @staticmethod
    def is_persistent() -> bool:
        """§2.1: dirty lines in the DRAM cache are lost on power failure."""
        return False

    def hit_rate(self, working_set_bytes: int, pattern: Pattern) -> float:
        """Expected DRAM-cache hit rate for a working set.

        Sequential streaming of a set larger than the cache evicts every
        line before its reuse: the hit rate collapses to zero. Uniform
        random reuse hits with the capacity ratio.
        """
        if working_set_bytes <= 0:
            raise WorkloadError("working set must be positive")
        capacity = self.config.dram_cache_bytes
        if working_set_bytes <= capacity:
            return 1.0
        if pattern is Pattern.SEQUENTIAL:
            return 0.0
        return capacity / working_set_bytes

    def read_bandwidth(
        self,
        threads: int,
        access_size: int,
        working_set_bytes: int,
        pattern: Pattern = Pattern.SEQUENTIAL,
    ) -> float:
        """Effective read bandwidth under Memory Mode, GB/s.

        Harmonic blend of the DRAM-speed hits and PMEM-speed misses
        (bandwidth averages over *time*, not over accesses).
        """
        hit = self.hit_rate(working_set_bytes, pattern)
        if pattern is Pattern.SEQUENTIAL:
            dram = self._gbps(
                read_stream(threads, access_size=access_size, media=MediaKind.DRAM)
            )
            pmem = self._gbps(read_stream(threads, access_size=access_size))
        else:
            dram = self._gbps(read_stream(
                threads, access_size=access_size, media=MediaKind.DRAM,
                pattern=Pattern.RANDOM,
                region_bytes=min(working_set_bytes, self.config.dram_cache_bytes),
            ))
            pmem = self._gbps(read_stream(
                threads, access_size=access_size, pattern=Pattern.RANDOM,
                region_bytes=2 * GIB,
            ))
        if hit >= 1.0:
            return dram
        # Misses additionally pay the cache-fill transfer into DRAM.
        miss_cost = 1.0 / pmem + 0.15 / dram
        return 1.0 / (hit / dram + (1.0 - hit) * miss_cost)

    def write_bandwidth(
        self,
        threads: int,
        access_size: int,
        working_set_bytes: int,
    ) -> float:
        """Effective write bandwidth under Memory Mode, GB/s.

        Writes always land in the DRAM cache; once the working set
        exceeds it, every write forces a dirty-line writeback to PMEM,
        so sustained large writes converge to PMEM's write speed.
        """
        dram = self._gbps(
            write_stream(threads, access_size=access_size, media=MediaKind.DRAM)
        )
        if working_set_bytes <= self.config.dram_cache_bytes:
            return dram
        pmem = self._gbps(write_stream(threads, access_size=access_size))
        return 1.0 / (1.0 / dram + 1.0 / pmem)

    def compare_app_direct(
        self, threads: int, access_size: int, working_set_bytes: int
    ) -> dict[str, float]:
        """Memory Mode vs. App Direct for one sequential-read workload.

        Shows why the paper (and most research, §2.1) prefers App
        Direct for large OLAP: beyond the DRAM cache, Memory Mode's
        transparent caching yields PMEM speed *plus* cache-fill
        overhead, with no control and no persistence.
        """
        return {
            "memory_mode_gbps": self.read_bandwidth(
                threads, access_size, working_set_bytes
            ),
            "app_direct_gbps": self._gbps(
                read_stream(threads, access_size=access_size)
            ),
            "dram_gbps": self._gbps(
                read_stream(threads, access_size=access_size, media=MediaKind.DRAM)
            ),
        }
