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
import math

import numpy as np
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import SimulationError, WorkloadError
from repro.memsim.address import InterleaveMap
from repro.memsim.config import paper_config
from repro.memsim.constants import OPTANE_LINE
from repro.memsim.context import EvalContext, eval_context
from repro.memsim.engine.trace import build_traces
from repro.memsim.spec import Layout, Op, Pattern
from repro.memsim.topology import MediaKind
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
        if not (math.isfinite(self.phase_spread) and self.phase_spread >= 0):
            raise WorkloadError("phase spread must be a finite, non-negative time")
        if not (math.isfinite(self.issue_jitter) and self.issue_jitter >= 0):
            raise WorkloadError("issue jitter must be a finite, non-negative time")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise WorkloadError(f"seed must be a non-negative int, got {self.seed!r}")
        if self.media not in (MediaKind.PMEM, MediaKind.DRAM):
            raise WorkloadError(f"engine does not model media {self.media}")


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
    """Replays access traces through the calibrated component models.

    The engine is configured by one :class:`EvalContext` (by default the
    paper's machine), the same bundle the analytic model prices with, so
    the replay and the model it cross-checks read one topology, one
    calibration and one set of component models. Ablations such as
    write combining off are configs:
    ``eval_context(MachineConfig(write_combining_enabled=False))``.
    """

    def __init__(self, context: EvalContext | None = None) -> None:
        self._context = context if context is not None else eval_context(paper_config())
        self.calibration = self._context.config.calibration
        self.write_combining = self._context.components.write_combining

    # ------------------------------------------------------------------

    def _rates(self, config: EngineConfig) -> tuple[float, float, float]:
        """Return (per-DIMM GB/s, per-op overhead s, stream GB/s)."""
        cal = self.calibration
        ways = self._context.interleave_ways[(0, config.media)]
        params = cal.pmem if config.media is MediaKind.PMEM else cal.dram
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
        seconds, (bytes_moved,), dimms, ops, media_bytes = self._replay(
            (config,), stop_at_first_drain=False
        )
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
                media_bytes,
            )
        return EngineResult(
            seconds=seconds,
            bytes_moved=bytes_moved,
            per_dimm_bytes=[d.bytes_served for d in dimms],
            media_bytes=media_bytes,
        )

    def _replay(
        self, sides: tuple[EngineConfig, ...], *, stop_at_first_drain: bool
    ) -> tuple[float, list[int], list[_Dimm], int, float]:
        """Replay thread groups concurrently through one set of DIMM servers.

        Side ``k``'s threads follow side ``k - 1``'s in thread-id order and
        its addresses are offset by ``k`` TiB, so every side stripes over
        the same DIMMs with disjoint data. The sides run on the first
        side's media, and its seed and phase spread draw every thread's
        start phase and per-op jitter from one generator. The replay ends
        when every trace drains, or, with ``stop_at_first_drain``, when
        the first one does.

        Returns the end time, the bytes each side completed, the DIMM
        servers, the op count and the media bytes moved.
        """
        first = sides[0]
        ways = self._context.interleave_ways[(0, first.media)]
        interleave = InterleaveMap(ways=ways)
        dimms = [_Dimm() for _ in range(ways)]
        groups: list[tuple[EngineConfig, float, float, float]] = []
        group_of: list[int] = []
        iterators = []
        for index, config in enumerate(sides):
            per_dimm_rate, op_overhead, stream_rate = self._rates(config)
            issue_gap = op_overhead + config.access_size / (stream_rate * GB)
            if config.pattern is Pattern.RANDOM and config.op is Op.READ:
                issue_gap += self.calibration.pmem.random_read_latency
            groups.append((config, per_dimm_rate, op_overhead, issue_gap))
            group_of.extend([index] * config.threads)
            traces = build_traces(
                threads=config.threads,
                access_size=config.access_size,
                total_bytes=config.total_bytes,
                layout=config.layout,
                pattern=config.pattern,
                region_bytes=config.region_bytes,
                seed=config.seed,
            )
            iterators.extend(iter(t) for t in traces)

        # Per-thread outstanding op completion times (reads only). FIFO
        # by issue order: deques retire from the front in O(1) where a
        # list's pop(0) would shift the whole tail (O(n) per retirement,
        # O(n^2) over a run at high MLP budgets).
        threads = len(iterators)
        outstanding: list[deque[float]] = [deque() for _ in range(threads)]
        jitter_rng = np.random.default_rng(first.seed)
        phases = jitter_rng.uniform(0.0, first.phase_spread, size=threads)
        heap: list[tuple[float, int, int]] = [
            (float(phases[tid]), tid, tid) for tid in range(threads)
        ]
        heapq.heapify(heap)
        counter = threads
        end_time = 0.0
        side_bytes = [0] * len(sides)
        media_total = 0.0
        ops = 0

        while heap:
            now, _, tid = heapq.heappop(heap)
            try:
                address, size = next(iterators[tid])
            except StopIteration:
                if stop_at_first_drain:
                    break
                continue
            side = group_of[tid]
            config, per_dimm_rate, op_overhead, issue_gap = groups[side]
            address += side * TIB
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
                dimm.recent_threads.append(tid)
                completion = max(completion, fragment_done)
                media_total += media_bytes
                offset += chunk
                remaining -= chunk

            side_bytes[side] += size
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

        return end_time, side_bytes, dimms, ops, media_total


def simulate(
    config: EngineConfig,
    recorder: "Recorder | None" = None,
    *,
    context: EvalContext | None = None,
) -> EngineResult:
    """One-shot convenience wrapper around :class:`DiscreteEventEngine`."""
    return DiscreteEventEngine(context).run(config, recorder=recorder)


@dataclass(frozen=True)
class MixedEngineConfig:
    """Concurrent reader and writer thread groups on one socket (§5.1).

    Both groups use individual sequential access to disjoint regions on
    the *same* DIMMs, like the paper's mixed benchmark. The replay runs
    until the first thread exhausts its trace; each group's bandwidth is
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
        # Each side is an EngineConfig, which rejects an invalid field.
        self.sides()

    def sides(self) -> tuple[EngineConfig, ...]:
        """The reader group and the writer group, in replay order."""
        return tuple(
            EngineConfig(
                op=op,
                threads=threads,
                access_size=self.access_size,
                media=self.media,
                total_bytes=self.bytes_per_side,
                read_mlp_ops=self.read_mlp_ops,
                phase_spread=self.phase_spread,
                issue_jitter=self.issue_jitter,
                seed=self.seed,
            )
            for op, threads in ((Op.READ, self.read_threads), (Op.WRITE, self.write_threads))
        )


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
    config: MixedEngineConfig, *, context: EvalContext | None = None
) -> MixedEngineResult:
    """Replay concurrent readers and writers through shared DIMM servers.

    A two-group run of the engine's replay: readers first, writers
    after, ending at the first drained trace. Interference is emergent:
    write fragments occupy a DIMM roughly 3x longer per byte than read
    fragments (the calibrated per-DIMM rates), so read completions queue
    behind writes — the §5.1 imbalance — while many concurrent readers
    stretch writers' queue waits in return.
    """
    seconds, (read_bytes, write_bytes), *_ = DiscreteEventEngine(context)._replay(
        config.sides(), stop_at_first_drain=True
    )
    if read_bytes == 0 or write_bytes == 0:
        raise SimulationError("mixed run ended before both sides moved data")
    return MixedEngineResult(
        seconds=seconds, read_bytes=read_bytes, write_bytes=write_bytes
    )
