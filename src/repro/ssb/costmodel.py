"""Traffic-to-runtime cost model: prices engine traffic with memsim.

For a given :class:`~repro.ssb.storage.SystemProfile`, the model derives
the deployment's effective bandwidths from the evaluation service over
:func:`repro.memsim.evaluate` (the same model behind Figures 3-13 — no
SSB-specific bandwidth numbers exist anywhere):

* sequential scans: near/far stream evaluation at the profile's thread
  count, pinning, and dax mode (SSD profiles scan at NVMe speed);
* random index probes: the §5.2 random-access curves at the index's
  access granularity, with a last-level-cache residency discount for
  cache-friendly (PMEM-aware) deployments and a UPI latency penalty for
  the non-NUMA-aware configuration;
* intermediate writes: the §4 write curves at the profile's effective
  write-thread count (PMEM-aware deployments cap their writers at the
  paper-recommended 4-6; unaware ones write with all threads and pay
  the §4.2 collapse).

CPU time uses one calibrated constant (ns per weighted tuple); each
operator phase costs ``max(cpu, memory)`` (computation overlaps memory
within an operator) and phases add up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.memsim import (
    DirectoryState,
    Layout,
    MediaKind,
    Op,
    PinningPolicy,
    StreamSpec,
    paper_config,
)
from repro.memsim.spec import Pattern
from repro.obs import Recorder, default_recorder
from repro.ssb.engine.traffic import OperatorTraffic, QueryTraffic
from repro.ssb.storage import SystemProfile
from repro.sweep import stream_gbps
from repro.units import GB, GIB, NS

#: Last-level cache per socket (Xeon Gold 5220S: 24.75 MB).
LLC_BYTES_PER_SOCKET: float = 24.75e6

#: Calibrated CPU cost per weighted tuple, seconds. One weight unit is
#: ~25 ns of core time; the per-operator weights in
#: :mod:`repro.ssb.engine.operators` express costs relative to it.
#: Anchor: the Table 1 single-thread runs are partly CPU-bound (221 s on
#: DRAM for Q2.1 at sf 100, with a probe per fact row).
CPU_SECONDS_PER_TUPLE: float = 25 * NS

#: Extra per-op latency of a random access crossing the UPI, seconds.
FAR_RANDOM_EXTRA_LATENCY: float = 400 * NS


@dataclass
class PhaseCost:
    """Cost of one operator phase."""

    name: str
    cpu_seconds: float
    memory_seconds: float

    @property
    def seconds(self) -> float:
        """Phase runtime in seconds: the slower of the CPU and memory legs."""
        return max(self.cpu_seconds, self.memory_seconds)

    @property
    def memory_bound(self) -> bool:
        return self.memory_seconds >= self.cpu_seconds


@dataclass
class CostBreakdown:
    """Predicted runtime of one query under one profile."""

    query: str
    profile: str
    phases: list[PhaseCost] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        """Total predicted query runtime in seconds."""
        return sum(p.seconds for p in self.phases)

    @property
    def memory_bound_fraction(self) -> float:
        """Fraction of time spent in memory-bound phases (§6.2 reports
        the benchmark is memory bound over 70% of the time)."""
        total = self.seconds
        if total <= 0:
            return 0.0
        return sum(p.seconds for p in self.phases if p.memory_bound) / total

    def describe(self) -> str:
        lines = [f"{self.query} on {self.profile}: {self.seconds:.3f}s"]
        for phase in self.phases:
            kind = "mem" if phase.memory_bound else "cpu"
            lines.append(
                f"  {phase.name:<24} {phase.seconds:8.4f}s ({kind}-bound; "
                f"cpu={phase.cpu_seconds:.4f} mem={phase.memory_seconds:.4f})"
            )
        return "\n".join(lines)


class SsbCostModel:
    """Prices :class:`QueryTraffic` for a system profile."""

    def __init__(self) -> None:
        self.config = paper_config()
        # All pricing is steady-state: far accesses are evaluated against
        # an explicitly warm coherence directory (the cold path is
        # Fig. 5's subject, not SSB's).
        self._directory = DirectoryState.warm(self.config.topology)
        # Each distinct stream tuple is asked of the service once per
        # model, so the service tallies one miss per bandwidth however
        # many passes price it.
        self._totals: dict[tuple[StreamSpec, ...], float] = {}

    def _gbps(self, streams: list[StreamSpec]) -> float:
        """Steady-state bandwidth of ``streams`` through the service."""
        key = tuple(streams)
        total = self._totals.get(key)
        if total is None:
            total = self._totals[key] = stream_gbps(
                self.config, key, self._directory
            )
        return total

    # ------------------------------------------------------------------
    # effective bandwidths
    # ------------------------------------------------------------------

    def scan_gbps(self, profile: SystemProfile) -> float:
        """Sequential table-scan bandwidth of the deployment, GB/s."""
        if profile.tables_on_ssd:
            return self.config.calibration.ssd.seq_read_max
        base = dict(
            op=Op.READ,
            threads=profile.threads_per_socket,
            access_size=4096,
            media=profile.media,
            layout=Layout.INDIVIDUAL,
            pinning=profile.pinning,
            dax_mode=profile.dax_mode,
        )
        if profile.sockets == 1:
            streams = [StreamSpec(**base)]
        elif profile.numa_aware:
            streams = [
                StreamSpec(**base),
                StreamSpec(**base, issuing_socket=1, target_socket=1),
            ]
        else:
            # Data striped across both sockets without placement logic:
            # every socket streams half its data from the far socket.
            half = dict(base, threads=max(1, profile.threads_per_socket // 2))
            streams = [
                StreamSpec(**half),
                StreamSpec(**half, issuing_socket=0, target_socket=1),
                StreamSpec(**half, issuing_socket=1, target_socket=1),
                StreamSpec(**half, issuing_socket=1, target_socket=0),
            ]
        return self._gbps(streams)

    def random_read_gbps(
        self,
        profile: SystemProfile,
        access_size: int,
        region_bytes: float,
        media: MediaKind | None = None,
    ) -> float:
        """Random-read bandwidth for probes of ``access_size``, GB/s.

        ``media`` overrides the target medium (the hybrid profile keeps
        indexes in DRAM while base tables stay on PMEM).
        """
        if media is None:
            media = profile.effective_index_media
        region = max(int(region_bytes), access_size) if region_bytes else 2 * GIB
        per_socket = self._gbps([
            StreamSpec(
                op=Op.READ,
                threads=profile.threads_per_socket,
                access_size=access_size,
                media=media,
                pattern=Pattern.RANDOM,
                region_bytes=region,
            )
        ])
        if media is MediaKind.PMEM and profile.dax_mode.value == "fsdax":
            per_socket /= 1.075
        if (
            media is MediaKind.PMEM
            and profile.pinning is PinningPolicy.NUMA_REGION
        ):
            # §4.3: intra-region placements still cross NUMA-node iMCs;
            # PMEM cannot mask the poorer pattern (Table 1's final
            # "Pinning" step recovers this).
            per_socket *= 0.93
        if profile.sockets == 1:
            return per_socket
        if profile.numa_aware and profile.replicate_dimensions:
            return per_socket * 2
        # Half the probes cross the UPI and pay its latency per op.
        cal = self.config.calibration
        if media is MediaKind.PMEM:
            near_latency = cal.pmem.random_read_latency
            stream = cal.pmem.random_read_stream_rate
        else:
            near_latency = cal.dram.random_read_latency
            stream = cal.dram.read_stream_rate
        transfer = access_size / (stream * GB)
        far_factor = (near_latency + transfer) / (
            near_latency + FAR_RANDOM_EXTRA_LATENCY + transfer
        )
        return per_socket * (1.0 + far_factor)

    def write_gbps(self, profile: SystemProfile) -> float:
        """Intermediate-write bandwidth of the deployment, GB/s."""
        media = profile.effective_index_media
        if profile.pmem_aware and media is MediaKind.PMEM:
            # Best practice 2: cap write threads at 4-6 per socket.
            threads = min(6, profile.threads_per_socket)
        else:
            threads = profile.threads_per_socket
        per_socket = self._gbps([
            StreamSpec(
                op=Op.WRITE,
                threads=threads,
                access_size=4096,
                media=media,
                pinning=profile.pinning,
                dax_mode=profile.dax_mode,
            )
        ])
        return per_socket * (profile.sockets if profile.numa_aware else 1)

    # ------------------------------------------------------------------
    # residency
    # ------------------------------------------------------------------

    def resident_fraction(self, profile: SystemProfile, region_bytes: float) -> float:
        """Fraction of a random-access region served from the LLC.

        PMEM-aware deployments use compact, contiguous structures that
        cache well; the PMEM-unaware profile's scattered allocations do
        not (§6.1's Hyrise keeps all structures on the storage medium).
        """
        if not profile.pmem_aware:
            return 0.0
        if region_bytes <= 0:
            return 0.0
        if region_bytes <= LLC_BYTES_PER_SOCKET:
            return 1.0
        # A region larger than the LLC thrashes under concurrent scan
        # traffic; at most half the probes hit even when the footprint is
        # only slightly above cache size.
        return min(0.5, LLC_BYTES_PER_SOCKET / region_bytes)

    # ------------------------------------------------------------------
    # pricing
    # ------------------------------------------------------------------

    def _phase(
        self, operator: OperatorTraffic, profile: SystemProfile
    ) -> PhaseCost:
        memory_seconds = 0.0
        cpu_discount = 1.0
        if operator.seq_read_bytes:
            memory_seconds += operator.seq_read_bytes / (
                self.scan_gbps(profile) * GB
            )
        if operator.random_reads:
            resident = self.resident_fraction(profile, operator.random_region_bytes)
            if resident < 1.0:
                # Gathers into the fact table hit the base-table medium;
                # index probes hit the (possibly hybrid) index medium.
                if operator.region_table == "lineorder" and not profile.tables_on_ssd:
                    media = profile.media
                else:
                    media = profile.effective_index_media
                bandwidth = self.random_read_gbps(
                    profile,
                    operator.random_read_size,
                    operator.random_region_bytes,
                    media=media,
                )
                memory_seconds += (
                    operator.random_read_bytes * (1.0 - resident) / (bandwidth * GB)
                )
            else:
                # A fully LLC-resident probe avoids the memory-stall part
                # of its per-tuple cost (the weight budgets for a miss).
                cpu_discount = 0.3
        write_bytes = operator.seq_write_bytes + operator.random_write_bytes
        if write_bytes:
            memory_seconds += write_bytes / (self.write_gbps(profile) * GB)
        cpu_seconds = (
            operator.cpu_tuples
            * operator.cpu_weight
            * cpu_discount
            * CPU_SECONDS_PER_TUPLE
            / profile.total_threads
        )
        return PhaseCost(
            name=operator.name,
            cpu_seconds=cpu_seconds,
            memory_seconds=memory_seconds,
        )

    def price(
        self,
        traffic: QueryTraffic,
        profile: SystemProfile,
        scale_ratio: float = 1.0,
        region_factors: dict[str, float] | None = None,
        *,
        recorder: Recorder | None = None,
    ) -> CostBreakdown:
        """Predict the runtime of ``traffic`` under ``profile``.

        ``scale_ratio`` linearly extrapolates traffic measured at a small
        scale factor to the paper's (e.g. executed at sf 0.1, priced for
        sf 100 with ``scale_ratio=1000``); ``region_factors`` override
        the growth of per-table random-access regions (part and date do
        not grow linearly). ``recorder`` (default: the process-wide
        :func:`repro.obs.default_recorder`) receives per-operator traffic
        events and the priced byte totals; it never affects the result.
        """
        if scale_ratio <= 0:
            raise ConfigurationError("scale ratio must be positive")
        if not math.isclose(scale_ratio, 1.0) or region_factors:
            scaled = traffic.scaled(scale_ratio, region_factors)
        else:
            scaled = traffic
        breakdown = CostBreakdown(query=traffic.query, profile=profile.name)
        for operator in scaled.operators:
            breakdown.phases.append(self._phase(operator, profile))
        rec = recorder if recorder is not None else default_recorder()
        if rec.enabled:
            self._emit(rec, scaled, profile, breakdown)
        return breakdown

    @staticmethod
    def _emit(
        rec: Recorder,
        scaled: QueryTraffic,
        profile: SystemProfile,
        breakdown: CostBreakdown,
    ) -> None:
        """Emit one pricing pass: per-operator events plus byte totals."""
        with rec.span("ssb.price", query=scaled.query, profile=profile.name):
            for operator, phase in zip(scaled.operators, breakdown.phases):
                rec.event(
                    "ssb.operator",
                    query=scaled.query,
                    operator=operator.name,
                    seq_read_bytes=operator.seq_read_bytes,
                    random_reads=operator.random_reads,
                    random_read_size=operator.random_read_size,
                    write_bytes=operator.seq_write_bytes + operator.random_write_bytes,
                    cpu_seconds=phase.cpu_seconds,
                    memory_seconds=phase.memory_seconds,
                    memory_bound=phase.memory_bound,
                )
        rec.incr("ssb.scan.read_bytes", scaled.seq_read_bytes)
        rec.incr("ssb.probe.requests_count", scaled.random_reads)
        rec.incr("ssb.probe.read_bytes", scaled.random_read_bytes)
        rec.incr("ssb.intermediate.write_bytes", scaled.write_bytes)
        rec.incr("ssb.cpu.tuples_count", scaled.cpu_tuples)
        rec.observe("ssb.query.predicted_seconds", breakdown.seconds)
