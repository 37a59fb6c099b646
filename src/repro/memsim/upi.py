"""UPI cross-socket interconnect and coherence-directory model.

Far memory access (reading or writing PMEM/DRAM attached to the other
socket) flows through the Ultra Path Interconnect. Three separable effects
matter for bandwidth (§3.4, §3.5, §4.4):

1. **Capacity**: ~40 GB/s raw per direction, of which ~25% is metadata,
   leaving ~31 GB/s of payload per direction. Far DRAM reads are pinned to
   this ceiling; far PMEM reads sit just below their near bandwidth
   anyway, so the same ceiling binds.
2. **Directory warm-up**: the cross-socket coherency protocol keeps
   address-space mappings per NUMA region. The *first* multi-threaded far
   traversal of a region constantly reassigns mappings and crawls at
   ~8 GB/s (best at ~4 threads, worse with more); once warm — or after a
   single-threaded priming pass — the same traversal reaches ~33 GB/s.
   Which pairs are warm is an explicit input of every evaluation, the
   immutable :class:`~repro.memsim.config.DirectoryState`; this module
   supplies the cold-run ceiling.
3. **Queue pollution**: far requests are inserted into the target iMC's
   queues with UPI latency, interleaving with local request streams and
   breaking Optane's 256 B locality. This is why two sockets reading
   *each other's* PMEM flatten at ~50 GB/s total and why near + far
   readers on the *same* PMEM collapse far below either alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError, WorkloadError
from repro.memsim.calibration import InterconnectCalibration, PmemCalibration


@dataclass(frozen=True)
class UpiModel:
    """Bandwidth ceilings contributed by the UPI link."""

    upi: InterconnectCalibration
    pmem: PmemCalibration

    @property
    def data_cap_per_direction(self) -> float:
        """Payload GB/s available per direction after metadata overhead."""
        return self.upi.data_per_direction

    def cold_far_read_cap(self, threads: int) -> float:
        """Bandwidth ceiling for a first-run far read (directory cold).

        Peaks at ~8 GB/s around 4 threads and *decays* with additional
        threads because every thread's accesses trigger concurrent mapping
        reassignments (Fig. 5: the optimal far thread count shifts from 18
        to 4).
        """
        if threads < 1:
            raise WorkloadError(f"thread count must be >= 1, got {threads}")
        best = self.pmem.cold_far_read_best_threads
        ramp = min(1.0, threads / best)
        decay = 1.0 + self.pmem.cold_far_read_decay * max(0, threads - best)
        return self.pmem.cold_far_read_max * ramp / decay

    def warm_far_read_cap(self, media_far_cap: float) -> float:
        """Ceiling for a warm far read of a device with ``media_far_cap``.

        The binding constraint is whichever is lower: the device's own
        far-read ceiling or the UPI payload capacity. In practice both
        PMEM and DRAM land at ~33 GB/s (Fig. 5 second run, Fig. 6b 1 Far).
        """
        if media_far_cap <= 0:
            raise SimulationError("media far cap must be positive")
        return min(media_far_cap, self.data_cap_per_direction * 1.07)

    def utilization(self, payload_gbps: float) -> float:
        """Fraction of one UPI direction consumed, metadata included.

        §3.5 reports 90%+ average utilization (including metadata) while
        both sockets read far memory; tests assert the model reproduces
        that reading.
        """
        if payload_gbps < 0:
            raise SimulationError("payload bandwidth cannot be negative")
        raw_needed = payload_gbps / (1.0 - self.upi.metadata_fraction)
        return min(1.0, raw_needed / self.upi.raw_per_direction)
