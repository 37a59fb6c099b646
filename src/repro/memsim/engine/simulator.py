"""Discrete-event simulator: the mechanism-level cross-check.

Where :func:`~repro.memsim.evaluation.evaluate` computes steady-state
bandwidth analytically from pattern statistics, this engine *replays* an
actual access trace op by op through the same component models:

* ops are split across DIMMs by the 4 KB interleave map;
* each DIMM is a server with a busy-until time and a service rate derived
  from the calibrated per-DIMM bandwidth;
* write service is stretched by the write-combining efficiency evaluated
  at the DIMM's *currently observed* stream concurrency (emergent, not
  prescribed);
* readers run ahead of completion up to a per-thread memory-level-
  parallelism budget (line-fill buffers plus prefetch depth); writers
  block on their trailing ``sfence``.

The engine exists to show that the paper's curve shapes are consequences
of these mechanisms: tests assert that the engine and the analytic model
agree on orderings and, within a tolerance band, on magnitudes. It is
also deliberately slower — run it on tens of MB, not the paper's 70 GB.
"""

from __future__ import annotations

import heapq

import numpy as np
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError, SimulationError, WorkloadError
from repro.memsim.address import InterleaveMap
from repro.memsim.buffers import ReadBufferModel, WriteCombiningModel
from repro.memsim.calibration import DeviceCalibration, paper_calibration
from repro.memsim.constants import OPTANE_LINE
from repro.memsim.context import EvalContext
from repro.memsim.engine.trace import build_traces
from repro.memsim.spec import Layout, Op, Pattern
from repro.memsim.topology import MediaKind, SystemTopology, paper_server
from repro.units import GB, MIB, NS, TIB

if TYPE_CHECKING:
    from repro.obs import Recorder


@dataclass(frozen=True)
class EngineConfig:
    """Parameters of one engine run (single socket, homogeneous threads)."""

    op: Op
    threads: int
    access_size: int
    layout: Layout = Layout.INDIVIDUAL
    pattern: Pattern = Pattern.SEQUENTIAL
    media: MediaKind = MediaKind.PMEM
    total_bytes: int = 32 * MIB
    region_bytes: int | None = None
    #: Minimum outstanding-op budget per reading thread. The effective
    #: budget (:attr:`effective_read_mlp`) grows for sub-line accesses:
    #: a core's ~10 line-fill buffers hold ten 64 B misses but only two
    #: 4 KB streaming ops.
    read_mlp_ops: int = 2
    #: Spread of the fixed per-thread start phases, seconds. Real cores
    #: drift out of lockstep (pipeline stalls, interrupts); without the
    #: phase spread, grouped threads issue same-line requests back to
    #: back and the Optane read buffer hides the line sharing that hurts
    #: real hardware. Phases are constant offsets, so they decorrelate
    #: arrivals without changing any thread's issue rate.
    phase_spread: float = 500 * NS
    #: Mean of the tiny per-op drift that keeps threads from re-locking.
    issue_jitter: float = 4 * NS
    seed: int = 7

    @property
    def effective_read_mlp(self) -> int:
        return max(self.read_mlp_ops, 640 // self.access_size + 2)

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise WorkloadError("need at least one thread")
        if self.access_size < 64:
            raise WorkloadError("access size must be at least one cache line")
        if self.total_bytes < self.access_size * self.threads:
            raise WorkloadError("total volume too small for the thread count")
        if self.read_mlp_ops < 1:
            raise WorkloadError("read MLP must be >= 1")


@dataclass
class EngineResult:
    """Outcome of one engine run."""

    seconds: float
    bytes_moved: int
    per_dimm_bytes: list[int]
    media_bytes: float

    @property
    def gbps(self) -> float:
        """Achieved bandwidth in decimal GB/s over the measured interval."""
        if self.seconds <= 0:
            raise SimulationError("engine produced a zero-length run")
        return self.bytes_moved / self.seconds / GB

    @property
    def dimm_imbalance(self) -> float:
        """Max/mean ratio of per-DIMM traffic (1.0 = perfectly even)."""
        if not self.per_dimm_bytes or sum(self.per_dimm_bytes) == 0:
            return 1.0
        mean = sum(self.per_dimm_bytes) / len(self.per_dimm_bytes)
        return max(self.per_dimm_bytes) / mean

    @property
    def amplification(self) -> float:
        if self.bytes_moved == 0:
            return 1.0
        return self.media_bytes / self.bytes_moved


@dataclass
class _Dimm:
    """Server state of one DIMM during the replay."""

    free_at: float = 0.0
    bytes_served: int = 0
    media_bytes: float = 0.0
    #: Application bytes the read-side line buffer answered without any
    #: media traffic (the ``dropped`` leg of the per-DIMM accounting
    #: identity ``issued == queued + dropped``).
    buffer_bytes: int = 0
    #: Line-buffer hit/miss tallies (256 B media lines).
    buffer_hit_lines: int = 0
    buffer_miss_lines: int = 0
    #: Write fragments combined at full efficiency vs. those that paid
    #: combining pressure (partial-line flushes).
    wc_hit_ops: int = 0
    wc_miss_ops: int = 0
    #: Thread ids of recently serviced ops, for stream-concurrency sensing
    #: (drives the emergent write-combining pressure).
    recent_threads: deque[int] = field(default_factory=lambda: deque(maxlen=32))
    #: LRU of buffered 256 B media lines (the Optane read buffer). Shared
    #: sub-line requests that arrive while their line is still buffered
    #: are served without extra media traffic; spread-out arrivals cause
    #: repeated media reads — the grouped small-read penalty of §3.1.
    line_buffer: "OrderedDict[int, None]" = field(default_factory=OrderedDict)
    line_buffer_capacity: int = 16

    def concurrency(self) -> int:
        return max(1, len(set(self.recent_threads)))

    def media_read_bytes(self, address: int, size: int) -> float:
        """Media bytes needed to serve a read, via the line buffer."""
        first_line = address // OPTANE_LINE
        last_line = (address + size - 1) // OPTANE_LINE
        media = 0.0
        for line in range(first_line, last_line + 1):
            if line in self.line_buffer:
                self.line_buffer.move_to_end(line)
                self.buffer_hit_lines += 1
                continue
            media += OPTANE_LINE
            self.buffer_miss_lines += 1
            self.line_buffer[line] = None
            while len(self.line_buffer) > self.line_buffer_capacity:
                self.line_buffer.popitem(last=False)
        return media


class DiscreteEventEngine:
    """Replays access traces through the calibrated component models."""

    def __init__(
        self,
        topology: SystemTopology | None = None,
        calibration: DeviceCalibration | None = None,
        *,
        write_combining_enabled: bool = True,
        context: EvalContext | None = None,
    ) -> None:
        if context is not None:
            # An EvalContext fixes topology, calibration, and the
            # component models in one immutable bundle; mixing it with
            # piecemeal overrides would let the replay disagree with the
            # analytic model it cross-checks.
            if topology is not None or calibration is not None:
                raise ConfigurationError(
                    "pass either an EvalContext or explicit "
                    "topology/calibration, not both"
                )
            self.topology = context.config.topology
            self.calibration = context.config.calibration
            self.write_combining = context.components.write_combining
            self.read_buffer = context.components.read_buffer
            self._context = context
            return
        self.topology = topology if topology is not None else paper_server()
        self.calibration = calibration if calibration is not None else paper_calibration()
        self.write_combining = WriteCombiningModel(
            self.calibration.pmem, enabled=write_combining_enabled
        )
        self.read_buffer = ReadBufferModel(self.calibration.pmem)
        self._context = None

    # ------------------------------------------------------------------

    def _ways(self, media: MediaKind) -> int:
        """Interleave ways on socket 0 (the engine is single-socket)."""
        if self._context is not None:
            return self._context.interleave_ways[(0, media)]
        # No context supplied (ad-hoc topology/calibration): derive the
        # ways directly, once per run, not per op.
        return self.topology.interleave_ways(0, media)  # simlint: ignore[context-derivable-constant] -- contextless engine fallback

    def _rates(self, config: EngineConfig) -> tuple[float, float, float]:
        """Return (per-DIMM GB/s, per-op overhead s, stream GB/s)."""
        cal = self.calibration
        ways = self._ways(config.media)
        if config.media is MediaKind.PMEM:
            params = cal.pmem
        elif config.media is MediaKind.DRAM:
            params = cal.dram
        else:
            raise WorkloadError(f"engine does not model media {config.media}")
        if config.op is Op.READ:
            device = params.seq_read_max
            overhead = params.read_op_overhead
            stream = params.read_stream_rate
        else:
            device = params.seq_write_max
            overhead = params.write_op_overhead
            stream = params.write_stream_rate
        return device / ways, overhead, stream

    def _service_seconds(
        self,
        config: EngineConfig,
        dimm: _Dimm,
        address: int,
        bytes_on_dimm: int,
        per_dimm_rate: float,
    ) -> tuple[float, float]:
        """Service time and media bytes for one op fragment on one DIMM."""
        media_bytes = float(bytes_on_dimm)
        if config.media is MediaKind.PMEM:
            if config.op is Op.WRITE:
                # Write-combining efficiency at the *observed* per-DIMM
                # stream concurrency (the distinct threads recently served
                # here), so the boomerang emerges from the replay instead
                # of being prescribed.
                efficiency = self.write_combining.efficiency(
                    dimm.concurrency(), config.access_size
                )
                if config.layout is Layout.GROUPED and config.access_size < OPTANE_LINE:
                    efficiency *= self.write_combining.grouped_small_write_factor(
                        config.access_size
                    )
                media_bytes = bytes_on_dimm / efficiency
                if media_bytes <= float(bytes_on_dimm):
                    dimm.wc_hit_ops += 1
                else:
                    dimm.wc_miss_ops += 1
            else:
                media_bytes = dimm.media_read_bytes(address, bytes_on_dimm)
        # Buffer hits still move data over the channel, at a fraction of
        # the media cost.
        service_bytes = max(media_bytes, 0.15 * bytes_on_dimm)
        return service_bytes / (per_dimm_rate * GB), media_bytes

    # ------------------------------------------------------------------

    def run(
        self, config: EngineConfig, *, recorder: "Recorder | None" = None
    ) -> EngineResult:
        """Replay the configured trace; return achieved bandwidth.

        ``recorder`` is a write-only :mod:`repro.obs` sink; the replay's
        per-DIMM tallies (issued/queued/buffer-dropped bytes, line-buffer
        and write-combining hits) are emitted to it after the run.
        """
        ways = self._ways(config.media)
        interleave = InterleaveMap(ways=ways)
        per_dimm_rate, op_overhead, stream_rate = self._rates(config)
        traces = build_traces(
            threads=config.threads,
            access_size=config.access_size,
            total_bytes=config.total_bytes,
            layout=config.layout,
            pattern=config.pattern,
            region_bytes=config.region_bytes,
            seed=config.seed,
        )
        iterators = [iter(t) for t in traces]
        dimms = [_Dimm() for _ in range(ways)]
        issue_gap = op_overhead + config.access_size / (stream_rate * GB)
        if config.pattern is Pattern.RANDOM and config.op is Op.READ:
            issue_gap += self.calibration.pmem.random_read_latency

        # Per-thread outstanding op completion times (reads only). FIFO
        # by issue order: deques retire from the front in O(1) where a
        # list's pop(0) would shift the whole tail (O(n) per retirement,
        # O(n^2) over a run at high MLP budgets).
        outstanding: list[deque[float]] = [deque() for _ in range(config.threads)]
        jitter_rng = np.random.default_rng(config.seed)
        phases = jitter_rng.uniform(0.0, config.phase_spread, size=config.threads)
        heap: list[tuple[float, int, int]] = [
            (float(phases[tid]), tid, tid) for tid in range(config.threads)
        ]
        heapq.heapify(heap)
        counter = config.threads
        end_time = 0.0
        bytes_moved = 0
        media_total = 0.0
        ops = 0

        while heap:
            now, _, tid = heapq.heappop(heap)
            try:
                address, size = next(iterators[tid])
            except StopIteration:
                continue
            ops += 1

            if config.op is Op.READ:
                # In-order retirement: the pending list is FIFO by issue
                # order, and the thread stalls on the *oldest* incomplete
                # load once its MLP budget (line-fill buffers + prefetch
                # depth) is exhausted.
                pending = outstanding[tid]
                while pending and pending[0] <= now:
                    pending.popleft()
                if len(pending) >= config.effective_read_mlp:
                    now = pending[0]
                    while pending and pending[0] <= now:
                        pending.popleft()

            # Split the op across the stripes it covers.
            completion = now
            offset = address
            remaining = size
            while remaining > 0:
                stripe_end = (offset // interleave.granularity + 1) * interleave.granularity
                chunk = min(remaining, stripe_end - offset)
                d = interleave.dimm_of(offset)
                dimm = dimms[d]
                service, media_bytes = self._service_seconds(
                    config, dimm, offset, chunk, per_dimm_rate
                )
                if config.op is Op.READ and media_bytes <= 0.0:
                    # Read-buffer hit: served at channel speed, bypassing
                    # the media queue entirely.
                    dimm.buffer_bytes += chunk
                    fragment_done = now + 10 * NS
                else:
                    start = max(now, dimm.free_at)
                    dimm.free_at = start + service
                    fragment_done = dimm.free_at
                dimm.bytes_served += chunk
                dimm.media_bytes += media_bytes
                dimm.recent_threads.append(tid)
                completion = max(completion, fragment_done)
                media_total += media_bytes
                offset += chunk
                remaining -= chunk

            bytes_moved += size
            end_time = max(end_time, completion)

            if config.op is Op.WRITE:
                # sfence completes once the stores reach the WPQ (the ADR
                # power-fail domain), not the media. The thread therefore
                # pipelines until the queue's backlog allowance is used up.
                backlog_allowance = 32 * 64 / (per_dimm_rate * GB)
                acceptance = max(now, completion - backlog_allowance)
                next_issue = max(acceptance + op_overhead, now + issue_gap)
            else:
                outstanding[tid].append(completion)
                next_issue = now + issue_gap
            if config.issue_jitter > 0:
                next_issue += float(jitter_rng.exponential(config.issue_jitter))
            counter += 1
            heapq.heappush(heap, (next_issue, counter, tid))

        if bytes_moved == 0:
            raise SimulationError("trace produced no operations")
        if recorder is not None and recorder.enabled:
            from repro.obs import probes

            probes.emit_engine(
                recorder,
                [
                    (
                        d.bytes_served,
                        d.bytes_served - d.buffer_bytes,
                        d.buffer_bytes,
                        d.buffer_hit_lines,
                        d.buffer_miss_lines,
                        d.wc_hit_ops,
                        d.wc_miss_ops,
                    )
                    for d in dimms
                ],
                ops,
                bytes_moved,
                media_total,
            )
        return EngineResult(
            seconds=end_time,
            bytes_moved=bytes_moved,
            per_dimm_bytes=[d.bytes_served for d in dimms],
            media_bytes=media_total,
        )


def simulate(
    config: EngineConfig,
    recorder: "Recorder | None" = None,
    **engine_kwargs: object,
) -> EngineResult:
    """One-shot convenience wrapper around :class:`DiscreteEventEngine`."""
    return DiscreteEventEngine(**engine_kwargs).run(config, recorder=recorder)


@dataclass(frozen=True)
class MixedEngineConfig:
    """Concurrent reader and writer thread groups on one socket (§5.1).

    Both groups use individual sequential access to disjoint regions on
    the *same* DIMMs, like the paper's mixed benchmark. The replay runs
    until the first group exhausts its trace; each group's bandwidth is
    its bytes completed over that shared interval.
    """

    read_threads: int
    write_threads: int
    access_size: int = 4096
    media: MediaKind = MediaKind.PMEM
    bytes_per_side: int = 16 * MIB
    read_mlp_ops: int = 2
    phase_spread: float = 500 * NS
    issue_jitter: float = 4 * NS
    seed: int = 7

    def __post_init__(self) -> None:
        if self.read_threads < 1 or self.write_threads < 1:
            raise WorkloadError("mixed runs need at least one thread per side")
        if self.access_size < 64:
            raise WorkloadError("access size must be at least one cache line")
        threads = self.read_threads + self.write_threads
        if self.bytes_per_side < self.access_size * threads:
            raise WorkloadError("volume too small for the thread count")

    @property
    def effective_read_mlp(self) -> int:
        return max(self.read_mlp_ops, 640 // self.access_size + 2)


@dataclass
class MixedEngineResult:
    """Outcome of a mixed replay."""

    seconds: float
    read_bytes: int
    write_bytes: int

    @property
    def read_gbps(self) -> float:
        """Read-side bandwidth in decimal GB/s over the measured interval."""
        if self.seconds <= 0:
            raise SimulationError("mixed run produced zero elapsed time")
        return self.read_bytes / self.seconds / GB

    @property
    def write_gbps(self) -> float:
        """Write-side bandwidth in decimal GB/s over the measured interval."""
        if self.seconds <= 0:
            raise SimulationError("mixed run produced zero elapsed time")
        return self.write_bytes / self.seconds / GB

    @property
    def total_gbps(self) -> float:
        """Combined read+write bandwidth in decimal GB/s."""
        return self.read_gbps + self.write_gbps


def simulate_mixed(
    config: MixedEngineConfig, **engine_kwargs: object
) -> MixedEngineResult:
    """Replay concurrent readers and writers through shared DIMM servers.

    Interference is emergent: write fragments occupy a DIMM roughly 3x
    longer per byte than read fragments (the calibrated per-DIMM rates),
    so read completions queue behind writes — the §5.1 imbalance — while
    many concurrent readers stretch writers' queue waits in return.
    """
    engine = DiscreteEventEngine(**engine_kwargs)
    ways = engine._ways(config.media)
    interleave = InterleaveMap(ways=ways)

    sides = {}
    for op, threads in ((Op.READ, config.read_threads), (Op.WRITE, config.write_threads)):
        sub = EngineConfig(
            op=op,
            threads=threads,
            access_size=config.access_size,
            media=config.media,
            total_bytes=config.bytes_per_side,
            read_mlp_ops=config.read_mlp_ops,
            phase_spread=config.phase_spread,
            issue_jitter=config.issue_jitter,
            seed=config.seed,
        )
        rate, overhead, stream = engine._rates(sub)
        traces = build_traces(
            threads=threads,
            access_size=config.access_size,
            total_bytes=config.bytes_per_side,
            layout=Layout.INDIVIDUAL,
            pattern=Pattern.SEQUENTIAL,
            seed=config.seed,
        )
        sides[op] = {
            "config": sub,
            "per_dimm_rate": rate,
            "op_overhead": overhead,
            "issue_gap": overhead + config.access_size / (stream * GB),
            "iterators": [iter(t) for t in traces],
        }

    dimms = [_Dimm() for _ in range(ways)]
    rng = np.random.default_rng(config.seed)
    total_threads = config.read_threads + config.write_threads
    phases = rng.uniform(0.0, config.phase_spread, size=total_threads)

    # Thread ids: readers first, writers after; writers' addresses are
    # offset so both sides stripe over the same DIMMs with disjoint data.
    write_offset = TIB
    outstanding: list[deque[float]] = [deque() for _ in range(config.read_threads)]
    heap: list[tuple[float, int, int]] = [
        (float(phases[tid]), tid, tid) for tid in range(total_threads)
    ]
    heapq.heapify(heap)
    counter = total_threads
    bytes_done = {Op.READ: 0, Op.WRITE: 0}
    clock = 0.0

    while heap:
        now, _, tid = heapq.heappop(heap)
        is_reader = tid < config.read_threads
        op = Op.READ if is_reader else Op.WRITE
        side = sides[op]
        local_tid = tid if is_reader else tid - config.read_threads
        try:
            address, size = next(side["iterators"][local_tid])
        except StopIteration:
            # First side to drain ends the measured interval.
            break
        if not is_reader:
            address += write_offset

        if is_reader:
            pending = outstanding[local_tid]
            while pending and pending[0] <= now:
                pending.popleft()
            if len(pending) >= config.effective_read_mlp:
                now = pending[0]
                while pending and pending[0] <= now:
                    pending.popleft()

        completion = now
        offset = address
        remaining = size
        while remaining > 0:
            stripe_end = (offset // interleave.granularity + 1) * interleave.granularity
            chunk = min(remaining, stripe_end - offset)
            dimm = dimms[interleave.dimm_of(offset)]
            service, media_bytes = engine._service_seconds(
                side["config"], dimm, offset, chunk, side["per_dimm_rate"]
            )
            if op is Op.READ and media_bytes <= 0.0:
                fragment_done = now + 10 * NS
            else:
                start = max(now, dimm.free_at)
                dimm.free_at = start + service
                fragment_done = dimm.free_at
            dimm.recent_threads.append(tid)
            completion = max(completion, fragment_done)
            offset += chunk
            remaining -= chunk

        bytes_done[op] += size
        clock = max(clock, completion)

        if op is Op.WRITE:
            allowance = 32 * 64 / (side["per_dimm_rate"] * GB)
            acceptance = max(now, completion - allowance)
            next_issue = max(acceptance + side["op_overhead"], now + side["issue_gap"])
        else:
            outstanding[local_tid].append(completion)
            next_issue = now + side["issue_gap"]
        if config.issue_jitter > 0:
            next_issue += float(rng.exponential(config.issue_jitter))
        counter += 1
        heapq.heappush(heap, (next_issue, counter, tid))

    if bytes_done[Op.READ] == 0 or bytes_done[Op.WRITE] == 0:
        raise SimulationError("mixed run ended before both sides moved data")
    return MixedEngineResult(
        seconds=clock,
        read_bytes=bytes_done[Op.READ],
        write_bytes=bytes_done[Op.WRITE],
    )
