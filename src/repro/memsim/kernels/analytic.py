"""Batched analytic evaluation: one NumPy pass over a whole sweep axis.

The per-point evaluator (:func:`repro.memsim.evaluation.evaluate`) costs
tens of microseconds per call, almost all of it Python interpretation of
the same short arithmetic chain. A sweep evaluates hundreds of points
against one shared :class:`~repro.memsim.context.EvalContext`, so this
module lays the points out structure-of-arrays — one array per stream
attribute — and runs the chain once over the batch.

Results *stay* structure-of-arrays: the native product of every kernel
here is a :class:`~repro.memsim.kernels.columns.ResultColumns` batch,
and per-point :class:`~repro.memsim.evaluation.BandwidthResult` objects
exist only as lazy views built on demand. Materializing the three result
objects per point used to cost ~4.7 µs under a ~25-30 µs scalar
baseline — the dominant term once the arithmetic was batched — so the
columnar path is what the sweep service, cluster, disk cache, and
experiment consumers all move between themselves.

**Bit-identity contract.** Every elementwise float64 add, subtract,
multiply, divide, minimum and maximum is correctly rounded under
IEEE-754, so applying the *same operations in the same order* across an
array produces bit-identical floats to the scalar chain. Two things
would break that and are therefore kept scalar:

* ``**`` — ``np.power`` routes through a different libm path than
  CPython's ``float.__pow__`` and differs in the last ulp for some
  inputs. All power terms (write-combining pressure, the sub-kilobyte
  and super-4K write-cap factors, the four random-access ramps) are
  computed per *unique* operand with Python ``**`` — by calling the
  exact helper the scalar evaluator calls — and scattered into the
  arrays.
* branches — selected with boolean masks (``np.where``) between
  sub-expressions that each mirror one scalar branch exactly. The
  counter columns reuse the same device: ``app_bytes_read`` is
  ``np.where(is_read, volume, 0.0)``, a pure selection of floats the
  scalar path computes identically.

**Eligibility.** The fast path covers every point family the scalar
evaluator can price: sequential and random patterns, near and far
placement, all three pinning policies, devdax and fsdax mappings, and
multi-stream points (whose per-stream solos are vectorized here and
whose cross-stream interactions run through the exact scalar
``_Evaluator`` methods on the vectorized solos). The residual fallback
set (:func:`classify_point`) is only what the scalar evaluator itself
rejects: empty points, streams naming an unknown or core-less socket,
and PMEM streams targeting a socket with no PMEM DIMMs — the fallback
path surfaces the same error the per-point call would raise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.memsim import evaluation, random_access
from repro.memsim.address import DaxMode, MappedRegion, fsdax_bandwidth_factor
from repro.memsim.config import DirectoryState
from repro.memsim.constants import INTERLEAVE_SIZE, OPTANE_LINE
from repro.memsim.context import EvalContext
from repro.memsim.kernels.columns import ResultColumns, _pick
from repro.memsim.scheduler import HT_YIELD, PinningPolicy
from repro.memsim.spec import Layout, Op, Pattern, StreamSpec
from repro.memsim.topology import MediaKind
from repro.units import GB

if TYPE_CHECKING:
    from typing import Callable

    from repro.obs import Recorder

__all__ = [
    "FALLBACK_REASONS",
    "classify_point",
    "evaluate_points_columns",
]

#: The reasons :func:`classify_point` can report, in documentation order.
#: Each is also a label of the ``sweep.vector.fallback.*_count`` counter
#: family emitted when a grid point takes the scalar fallback.
FALLBACK_REASONS: tuple[str, ...] = ("empty", "socket", "media")


def classify_point(
    ctx: EvalContext, streams: tuple[StreamSpec, ...]
) -> str | None:
    """Why ``streams`` needs the scalar fallback — or ``None`` if vectorizable.

    Returns one of :data:`FALLBACK_REASONS`:

    * ``"empty"`` — no streams; the scalar evaluator raises
      ``WorkloadError``.
    * ``"socket"`` — a stream names a socket the topology lacks
      (``TopologyError``), or a *sequential* stream issues from a socket
      with no physical cores (``scheduler.placement`` raises; random
      issue is latency-bound and never consults the placement).
    * ``"media"`` — a PMEM stream targets a socket with no PMEM DIMMs.
      Sequential pricing needs the interleave map, and the per-DIMM
      observability probes divide by the interleave ways for *any* PMEM
      stream, so random PMEM points on such sockets are conservatively
      routed through the fallback too — it raises the same error under a
      recorder and prices identically without one.

    Deliberately raises nothing: unpriceable points are *reported*, so
    the fallback surfaces the same error the per-point call would.
    """
    if not streams:
        return "empty"
    socket_ids = ctx.socket_ids
    for spec in streams:
        issuing = spec.issuing_socket
        target = spec.target_socket
        if issuing not in socket_ids or target not in socket_ids:
            return "socket"
        media = spec.media
        if media is _PMEM:
            if target not in ctx.pmem_sockets:
                return "media"
        elif media is not _DRAM:
            return "media"
        if spec.pattern is not _RANDOM and issuing not in ctx.cored_sockets:
            return "socket"
    return None


_PMEM, _DRAM, _RANDOM = MediaKind.PMEM, MediaKind.DRAM, Pattern.RANDOM


def evaluate_points_columns(
    ctx: EvalContext,
    points: Sequence[tuple[StreamSpec, ...]],
    directory: DirectoryState,
) -> "tuple[ResultColumns, Callable[..., None]]":
    """Evaluate eligible points (any stream count) into one column batch.

    Every point must be eligible (:func:`classify_point` returning
    ``None``); callers that cannot guarantee that should use
    :meth:`repro.sweep.service.EvaluationService.evaluate_grid_columns`,
    which routes the rest through the scalar evaluator. Row
    ``i`` of the returned batch is bit-identical to per-point
    :func:`repro.memsim.evaluation.evaluate` of ``points[i]`` against
    ``directory``.

    Per-stream *solo* bandwidths are always computed in one vectorized
    pass, family by family (sequential vs. random chains under masks).
    The cross-stream stage is vectorized for the single-stream points
    (the only interaction a single stream can trigger is its own
    UPI-direction clamp); each multi-stream point's interactions run
    through the exact scalar ``_Evaluator`` methods over the vectorized
    solos, which is bit-identical by construction. A batch holding both
    kinds prices each kind over its own subset of the solos and scatters
    the rows back into point order.

    Observability emission is left to the caller: the second element is
    ``emit(recorder, i, *, before=None, after=None)``, which replays
    point ``i``'s evaluation probes straight from the columns (no view is
    materialized). ``before``/``after`` default to the evaluation's own
    directory states; the sweep service overrides them with the
    *normalized* states its cache layer evaluates against, so probe
    emission matches the per-point path exactly. Grid evaluators
    interleave these emissions with scalar fallback evaluations *in
    point order*: float addition is order-sensitive at the last ulp, so
    recorder counters must accumulate in exactly the per-point order.
    """
    specs: list[StreamSpec] = []
    offsets: list[int] = [0]
    multi: list[int] = []
    for p, streams in enumerate(points):
        specs.extend(streams)
        offsets.append(len(specs))
        if len(streams) != 1:
            multi.append(p)
    config = ctx.config
    if not specs:
        return ResultColumns(), lambda recorder, i, **kw: None

    flat = _solo_columns(ctx, specs, directory)
    out = _assemble(ctx, specs, offsets, multi, flat, directory)
    read_amp = flat.read_amp
    write_amp = flat.write_amp

    def emit(
        recorder: "Recorder",
        i: int,
        *,
        before: DirectoryState | None = None,
        after: DirectoryState | None = None,
    ) -> None:
        from repro.obs import probes

        lo = out.offsets[i]
        hi = out.offsets[i + 1]
        probes.emit_evaluation(
            recorder,
            config,
            [
                (out.specs[j], out.gbps[j], read_amp[j], write_amp[j])
                for j in range(lo, hi)
            ],
            out._counters_at(i),
            before if before is not None else directory,
            after if after is not None else out.directory_after[i],
        )

    return out, emit


class _FlatSolos:
    """Vectorized per-stream solo results, flat across all points.

    The array fields mirror :class:`repro.memsim.evaluation._Solo`
    bitwise: ``gbps`` is the solo bandwidth *before* cross-stream
    interactions, ``issue``/``cap`` the issue- and media-side terms the
    occupancy counters are computed from (for random streams both equal
    ``gbps``, as in the scalar path), and the amplification arrays ride
    along for recorder emission.
    """

    __slots__ = (
        "gbps", "solo", "issue", "cap", "read_amp", "write_amp",
        "volume", "is_read", "is_pmem", "far", "notes",
        "pages", "fault_seconds", "any_far",
    )

    def __init__(self, n: int = 0) -> None:
        self.gbps = np.empty(n, dtype=np.float64)
        self.solo = np.empty(n, dtype=np.float64)
        self.issue = np.empty(n, dtype=np.float64)
        self.cap = np.empty(n, dtype=np.float64)
        self.read_amp: list[float] = [1.0] * n
        self.write_amp: list[float] = [1.0] * n
        self.volume = np.empty(n, dtype=np.float64)
        self.is_read = np.empty(n, dtype=bool)
        self.is_pmem = np.empty(n, dtype=bool)
        self.far = np.empty(n, dtype=bool)
        self.notes: list[tuple[str, ...]] = [()] * n
        self.pages: list[int] = [0] * n
        self.fault_seconds: list[float] = [0.0] * n
        self.any_far = False

    def subset(self, streams: list[int]) -> "_FlatSolos":
        """The solos of the flat positions ``streams``, in that order."""
        index = np.array(streams, dtype=np.intp)
        sub = _FlatSolos()
        for name in ("gbps", "solo", "issue", "cap", "volume", "is_read", "is_pmem", "far"):
            setattr(sub, name, getattr(self, name)[index])
        for name in ("read_amp", "write_amp", "notes", "pages", "fault_seconds"):
            setattr(sub, name, _pick(getattr(self, name), streams))
        sub.any_far = bool(sub.far.any())
        return sub


def _solo_columns(
    ctx: EvalContext,
    specs: Sequence[StreamSpec],
    directory: DirectoryState,
) -> _FlatSolos:
    """The vectorized solo pass over all streams of all points.

    One Python row loop gathers per-stream operands (with the ``**``
    terms memoized per unique operand through the scalar helpers), then
    the sequential and random families each run their arithmetic chain
    once over the family's rows and scatter into flat arrays.
    """
    cal = ctx.config.calibration
    parts = ctx.components
    prefetcher = parts.prefetcher
    wc = parts.write_combining
    sched_cpu = parts.scheduler.cpu
    core_count = ctx.physical_core_count
    tables = ctx.random_tables
    pmem_maps = {
        socket: ctx.interleave_maps[(socket, MediaKind.PMEM)]
        for socket in ctx.socket_ids
    }
    small_region_threshold = cal.dram.small_region_threshold
    fsdax_factor = fsdax_bandwidth_factor(cal.pmem.devdax_advantage)
    page_fault_cost = cal.pmem.page_fault_cost

    n = len(specs)
    flat = _FlatSolos(n)
    # Rows are accumulated as one tuple per stream and transposed with
    # ``zip(*rows)`` — one append per stream plus a C-level transpose
    # beats both per-element ndarray stores and parallel per-column
    # appends, and this loop is the batch's Python-side cost floor.
    seq_rows: list[tuple] = []
    seq_idx: list[int] = []
    rnd_rows: list[tuple] = []
    rnd_idx: list[int] = []
    # Scalar companions are computed per unique operand with the exact
    # code the per-point evaluator runs (`**` is not vectorizable
    # bit-identically): write-combining efficiency, the write-cap size
    # factor, the four random ramps, fsdax page-fault notes, and the
    # directory warmth of each far-read direction.
    eff_memo: dict[tuple[int, int], float] = {}
    pow_memo: dict[int, float] = {}
    ramp_memo: dict[tuple[bool, bool, int], float] = {}
    warm_memo: dict[tuple[int, int], bool] = {}
    fsdax_memo: dict[int, tuple[int, float, str]] = {}

    volume_l = flat.volume
    notes_l = flat.notes
    for j, spec in enumerate(specs):
        spec_threads = spec.threads
        spec_size = spec.access_size
        read = spec.op is Op.READ
        pmem = spec.media is MediaKind.PMEM
        far = spec.issuing_socket != spec.target_socket
        none = spec.pinning is PinningPolicy.NONE
        numa = spec.pinning is PinningPolicy.NUMA_REGION
        volume_l[j] = float(spec.total_bytes)
        flat.is_read[j] = read
        flat.is_pmem[j] = pmem
        flat.far[j] = far
        if far:
            flat.any_far = True

        # fsdax: the bandwidth factor applies to any non-devdax PMEM
        # mapping that is not prefaulted; the fault counters additionally
        # require DaxMode.FSDAX (mirroring the scalar conditions, which
        # today coincide because FSDAX is the only other mode).
        fs_band = pmem and spec.dax_mode is not DaxMode.DEVDAX and not spec.prefaulted
        fsdax_note = ""
        if fs_band:
            entry = fsdax_memo.get(spec.region_bytes)
            if entry is None:
                region = MappedRegion(
                    size=spec.region_bytes,
                    dax_mode=spec.dax_mode,
                    prefaulted=False,
                )
                pages = region.pages
                fault_cost = region.fault_cost(page_fault_cost)
                entry = (
                    pages,
                    fault_cost,
                    f"fsdax: {pages} first-touch page faults "
                    f"(~{fault_cost:.3f}s if cold)",
                )
                fsdax_memo[spec.region_bytes] = entry
            fsdax_note = entry[2]
            if spec.dax_mode is DaxMode.FSDAX:
                flat.pages[j] = entry[0]
                flat.fault_seconds[j] = entry[1]

        if spec.pattern is Pattern.RANDOM:
            wc_eff2 = wamp = 1.0
            if pmem and not read:
                key = (spec_threads, max(spec_size, 2048))
                wc_eff2 = eff_memo.get(key)
                if wc_eff2 is None:
                    wc_eff2 = wc.efficiency(key[0], key[1])
                    eff_memo[key] = wc_eff2
                key = (spec_threads, spec_size)
                eff = eff_memo.get(key)
                if eff is None:
                    eff = wc.efficiency(spec_threads, spec_size)
                    eff_memo[key] = eff
                wamp = 1.0 / eff
            rkey = (pmem, read, spec_size)
            ramp = ramp_memo.get(rkey)
            if ramp is None:
                if pmem:
                    ramp = (
                        random_access.pmem_random_read_ramp(spec_size)
                        if read
                        else random_access.pmem_random_write_ramp(spec_size)
                    )
                else:
                    ramp = (
                        random_access.dram_random_read_ramp(spec_size)
                        if read
                        else random_access.dram_random_write_ramp(spec_size)
                    )
                ramp_memo[rkey] = ramp
            notes: tuple[str, ...] = ()
            if none:
                notes = ("unpinned random access",)
            if far:
                notes += ("far random access: UPI-bound",)
            if fs_band:
                notes += (fsdax_note,)
            if notes:
                notes_l[j] = notes
            rnd_idx.append(j)
            rnd_rows.append((
                spec_threads,
                spec_size,
                core_count[spec.issuing_socket],
                read,
                pmem,
                numa,
                none,
                far,
                spec.region_bytes <= small_region_threshold,
                fs_band,
                wc_eff2,
                wamp,
                ramp,
            ))
            continue

        if pmem:
            interleave = pmem_maps[spec.target_socket]
            way_count = interleave.ways
            granularity = interleave.granularity
            if read:
                eff = factor = 1.0
            else:
                key = (spec_threads, spec_size)
                eff = eff_memo.get(key)
                if eff is None:
                    eff = wc.efficiency(spec_threads, spec_size)
                    eff_memo[key] = eff
                factor = pow_memo.get(spec_size)
                if factor is None:
                    factor = _write_cap_size_factor(spec_size)
                    pow_memo[spec_size] = factor
        else:
            way_count = granularity = 1
            eff = factor = 1.0
        warm = False
        notes = ()
        if none:
            notes = (
                ("unpinned: scheduler migrations keep remapping cold",)
                if read
                else ("unpinned: cross-socket placements halve write bandwidth",)
            )
        elif far:
            if read:
                if not pmem:
                    notes = ("far DRAM read: UPI-bound",)
                else:
                    pair = (spec.issuing_socket, spec.target_socket)
                    warm = warm_memo.get(pair)
                    if warm is None:
                        warm = directory.is_warm(*pair)
                        warm_memo[pair] = warm
                    notes = (
                        ("far PMEM read: directory warm",)
                        if warm
                        else ("far PMEM read: first run, directory cold",)
                    )
            elif pmem:
                notes = ("far PMEM write: ntstore degrades to read-modify-write",)
        if fs_band:
            notes += (fsdax_note,)
        if notes:
            notes_l[j] = notes
        seq_idx.append(j)
        seq_rows.append((
            spec_threads,
            spec_size,
            core_count[spec.issuing_socket],
            way_count,
            granularity,
            read,
            pmem,
            spec.layout is Layout.GROUPED,
            numa,
            none,
            far,
            warm,
            fs_band,
            eff,
            factor,
        ))

    if seq_rows:
        _seq_chain(
            flat, seq_rows, seq_idx, cal, prefetcher, sched_cpu, ctx, fsdax_factor
        )
    if rnd_rows:
        _rnd_chain(flat, rnd_rows, rnd_idx, cal, tables, sched_cpu, ctx, fsdax_factor)
    return flat


def _seq_chain(
    flat: _FlatSolos,
    rows: list[tuple],
    idx: list[int],
    cal,
    prefetcher,
    sched_cpu,
    ctx: EvalContext,
    fsdax_factor: float,
) -> None:
    """The sequential-family arithmetic chain, scattered into ``flat``.

    Mirrors ``_Evaluator._solo_sequential`` (and the helpers it calls)
    operation for operation; see the module docstring for why each branch
    is a masked selection.
    """
    (
        threads_c, size_c, physical_c, ways_c, gran_c, read_c, pmem_c,
        grouped_c, numa_c, none_c, far_c, warm_c, fsdax_c, wc_eff_c, cap_pow_c,
    ) = zip(*rows)
    m = len(rows)
    threads = np.array(threads_c, dtype=np.int64)
    size = np.array(size_c, dtype=np.int64)
    physical = np.array(physical_c, dtype=np.int64)
    ways = np.array(ways_c, dtype=np.int64)
    gran = np.array(gran_c, dtype=np.int64)
    is_read = np.array(read_c, dtype=bool)
    is_pmem = np.array(pmem_c, dtype=bool)
    grouped = np.array(grouped_c, dtype=bool)
    numa = np.array(numa_c, dtype=bool)
    none = np.array(none_c, dtype=bool)
    far = np.array(far_c, dtype=bool)
    warm = np.array(warm_c, dtype=bool)
    fsdax = np.array(fsdax_c, dtype=bool)
    wc_eff = np.array(wc_eff_c, dtype=np.float64)
    cap_pow = np.array(cap_pow_c, dtype=np.float64)
    any_none = bool(none.any())
    any_far = bool(far.any())
    any_fsdax = bool(fsdax.any())

    threads_f = threads.astype(np.float64)
    ways_f = ways.astype(np.float64)

    with np.errstate(divide="ignore", invalid="ignore"):
        # --- per-thread issue rate (_per_thread_rate / _issue_bandwidth)
        overhead = np.where(
            is_pmem,
            np.where(is_read, cal.pmem.read_op_overhead, cal.pmem.write_op_overhead),
            np.where(is_read, cal.dram.read_op_overhead, cal.dram.write_op_overhead),
        )
        stream_rate = np.where(
            is_pmem,
            np.where(is_read, cal.pmem.read_stream_rate, cal.pmem.write_stream_rate),
            np.where(is_read, cal.dram.read_stream_rate, cal.dram.write_stream_rate),
        )
        per_op_seconds = overhead + size / (stream_rate * GB)
        per_thread = size / per_op_seconds / GB
        if any_far:
            # Blocking far stores see the full UPI round trip (§4.4).
            per_thread = np.where(
                far & ~is_read, per_thread * cal.pmem.far_write_thread_factor, per_thread
            )
        effective_issue = (
            np.minimum(threads, physical) + np.maximum(0, threads - physical) * HT_YIELD
        )
        issue = np.where(is_read, effective_issue, threads_f) * per_thread

        # --- grouped-sequential prefetcher dip (grouped_sequential_factor).
        # The dip window is defined against INTERLEAVE_SIZE for every
        # media kind, independent of any per-socket map granularity.
        if prefetcher.enabled:
            gsf = np.where(
                (size >= 1024) & (size < INTERLEAVE_SIZE),
                prefetcher.cpu.prefetch_dip_factor,
                1.0,
            )
        else:
            gsf = np.ones(m, dtype=np.float64)

        # --- read media cap (_sequential_read_media_cap)
        per_dimm_read = cal.pmem.seq_read_max / ways
        window = threads * size
        grouped_parallelism = np.minimum(ways_f, 1.0 + window / gran)
        read_cap_grouped = (per_dimm_read * grouped_parallelism) * gsf
        read_cap_individual = per_dimm_read * np.minimum(ways, 2 * threads)
        read_cap_dram = np.where(grouped, cal.dram.seq_read_max * gsf, cal.dram.seq_read_max)
        read_cap = np.where(
            is_pmem,
            np.where(grouped, read_cap_grouped, read_cap_individual),
            read_cap_dram,
        )

        # --- write media cap (_sequential_write_media_cap)
        per_dimm_write = cal.pmem.seq_write_max / ways
        write_parallelism = np.where(
            grouped,
            np.minimum(ways_f, 2.0 + window / gran),
            np.minimum(ways, 2 * threads).astype(np.float64),
        )
        small_factor = np.where(
            grouped & (size < OPTANE_LINE),
            np.maximum(0.45, size / OPTANE_LINE),
            1.0,
        )
        write_cap_pmem = ((per_dimm_write * write_parallelism) * wc_eff) * small_factor
        write_cap_pmem = write_cap_pmem * cap_pow
        write_cap = np.where(is_pmem, write_cap_pmem, cal.dram.seq_write_max)
        write_amp = 1.0 / wc_eff
        write_amp = np.where(
            grouped & (size < OPTANE_LINE),
            write_amp * (OPTANE_LINE / size),
            write_amp,
        )
        write_amp = np.where(is_pmem & ~is_read, write_amp, 1.0)

        # --- compose (_solo_sequential)
        media_cap = np.where(is_read, read_cap, write_cap)
        solo_gbps = np.minimum(issue, media_cap)
        if prefetcher.enabled:
            shared = np.minimum(1.0, (threads - physical) / physical)
            thread_factor = np.where(
                threads <= physical,
                1.0,
                1.0 - prefetcher.cpu.ht_imbalance_penalty * (4.0 * shared * (1.0 - shared)),
            )
        else:
            thread_factor = np.where(
                threads < 8, prefetcher.cpu.no_prefetch_low_thread_factor, 1.0
            )
        thread_factor = np.where(is_read, thread_factor, 1.0)
        pinned = np.where(
            numa & (threads > physical), sched_cpu.numa_pinning_overhead, 1.0
        ) * np.where(numa & ~is_read, sched_cpu.numa_pinning_write_overhead, 1.0)
        after_pinning = solo_gbps * pinned
        if any_none:
            # Unpinned reads collapse onto the cold-far envelope; DRAM
            # unpinned reads halve instead (§3.4); unpinned writes pay
            # the scheduler's cross-socket write factor (Fig. 9).
            unp_ramp = np.minimum(1.0, threads / cal.pmem.cold_far_read_best_threads)
            envelope = (
                cal.pmem.cold_far_read_max * unp_ramp
            ) * sched_cpu.unpinned_read_factor
            envelope = np.where(is_pmem, envelope, cal.dram.seq_read_max * 0.5)
            unp_read = np.minimum(solo_gbps, envelope)
            unp_write = solo_gbps * sched_cpu.unpinned_write_factor
            after_pinning = np.where(
                none, np.where(is_read, unp_read, unp_write), after_pinning
            )
        gbps = after_pinning * thread_factor

        if any_far:
            # --- far ceilings (_apply_far_ceilings), pinned far streams
            # only: unpinned points already collapsed onto the envelope.
            best = cal.pmem.cold_far_read_best_threads
            cold_ramp = np.minimum(1.0, threads / best)
            cold_decay = 1.0 + cal.pmem.cold_far_read_decay * np.maximum(
                0, threads - best
            )
            cold_cap = cal.pmem.cold_far_read_max * cold_ramp / cold_decay
            read_far_cap = np.where(
                is_pmem,
                np.where(warm, ctx.warm_far_read_cap_pmem, cold_cap),
                ctx.warm_far_read_cap_dram,
            )
            far_cap = np.where(
                is_read,
                read_far_cap,
                np.where(is_pmem, cal.pmem.far_write_max, ctx.upi_data_cap),
            )
            far_pinned = far & ~none
            gbps = np.where(far_pinned, np.minimum(gbps, far_cap), gbps)
            # §4.4 reports *up to* 10x internal far-write amplification.
            far_amp_max = cal.pmem.far_write_amplification_max
            amp_adjust = 1.0 + (far_amp_max - 1.0) * np.minimum(1.0, threads / 18.0)
            write_amp = np.where(
                far_pinned & ~is_read,
                np.minimum(write_amp * amp_adjust, far_amp_max),
                write_amp,
            )
        if any_fsdax:
            gbps = np.where(fsdax, gbps * fsdax_factor, gbps)

    rows_at = np.array(idx, dtype=np.intp)
    flat.gbps[rows_at] = gbps
    flat.solo[rows_at] = solo_gbps
    flat.issue[rows_at] = issue
    flat.cap[rows_at] = media_cap
    if bool((is_pmem & ~is_read).any()):
        amp_l = write_amp.tolist()
        w_amp = flat.write_amp
        for k, j in enumerate(idx):
            w_amp[j] = amp_l[k]


def _rnd_chain(
    flat: _FlatSolos,
    rows: list[tuple],
    idx: list[int],
    cal,
    tables,
    sched_cpu,
    ctx: EvalContext,
    fsdax_factor: float,
) -> None:
    """The random-family arithmetic chain, scattered into ``flat``.

    Mirrors ``_Evaluator._solo_random`` plus the :mod:`random_access`
    issue/cap formulas operation for operation, with the ``**`` ramps
    pre-computed per unique access size in the row loop. The scalar path
    sets ``issue_gbps`` and ``media_cap_gbps`` to the final solo
    bandwidth for random streams, so the occupancy counters see ``rho ==
    1`` exactly as the per-point evaluator does.
    """
    (
        threads_c, size_c, physical_c, read_c, pmem_c, numa_c, none_c,
        far_c, small_c, fsdax_c, wc_eff2_c, wamp_c, ramp_c,
    ) = zip(*rows)
    threads = np.array(threads_c, dtype=np.int64)
    size = np.array(size_c, dtype=np.int64)
    physical = np.array(physical_c, dtype=np.int64)
    is_read = np.array(read_c, dtype=bool)
    is_pmem = np.array(pmem_c, dtype=bool)
    numa = np.array(numa_c, dtype=bool)
    none = np.array(none_c, dtype=bool)
    far = np.array(far_c, dtype=bool)
    small_region = np.array(small_c, dtype=bool)
    fsdax = np.array(fsdax_c, dtype=bool)
    wc_eff2 = np.array(wc_eff2_c, dtype=np.float64)
    wamp = np.array(wamp_c, dtype=np.float64)
    ramp = np.array(ramp_c, dtype=np.float64)

    with np.errstate(divide="ignore", invalid="ignore"):
        sub_line = size < OPTANE_LINE
        sub_ratio = size / OPTANE_LINE
        # --- PMEM caps and issue (pmem_random_{read,write}_*)
        pmem_read_cap = tables.pmem_read_peak_gbps * ramp
        pmem_read_cap = np.where(sub_line, pmem_read_cap * sub_ratio, pmem_read_cap)
        pmem_read_issue = (
            threads * size
            / (cal.pmem.random_read_latency + size / tables.pmem_read_stream_bps)
            / GB
        )
        pmem_write_cap = (tables.pmem_write_peak_gbps * ramp) * wc_eff2
        pmem_write_cap = np.where(sub_line, pmem_write_cap * sub_ratio, pmem_write_cap)
        pmem_write_issue = (
            threads * size
            / (tables.pmem_write_overhead_seconds + size / tables.pmem_write_stream_bps)
            / GB
        )
        # --- DRAM caps and issue (dram_random_{read,write})
        dram_read_peak = np.where(
            small_region, tables.dram_read_small_peak_gbps, tables.dram_read_large_peak_gbps
        )
        dram_read_cap = dram_read_peak * ramp
        dram_read_issue = (
            threads * size
            / (cal.dram.random_read_latency + size / tables.dram_read_stream_bps)
            / GB
        )
        dram_write_peak = np.where(
            small_region, tables.dram_write_small_peak_gbps, tables.dram_write_large_peak_gbps
        )
        dram_write_cap = dram_write_peak * ramp
        dram_write_issue = (
            threads * size
            / (cal.dram.random_read_latency + size / tables.dram_write_stream_bps)
            / GB
        )
        gbps = np.where(
            is_pmem,
            np.where(
                is_read,
                np.minimum(pmem_read_issue, pmem_read_cap),
                np.minimum(pmem_write_issue, pmem_write_cap),
            ),
            np.where(
                is_read,
                np.minimum(dram_read_issue, dram_read_cap),
                np.minimum(dram_write_issue, dram_write_cap),
            ),
        )
        # --- amplification (_solo_random)
        read_amp = np.where(
            is_pmem & is_read & sub_line, OPTANE_LINE / size, 1.0
        )
        write_amp = np.where(is_pmem & ~is_read, wamp, 1.0)
        # --- pinning: NONE flat-rates to 0.6; NUMA pays pinned_factor.
        numa_factor = np.where(
            numa & (threads > physical), sched_cpu.numa_pinning_overhead, 1.0
        ) * np.where(numa & ~is_read, sched_cpu.numa_pinning_write_overhead, 1.0)
        pin = np.where(none, 0.6, numa_factor)
        gbps = gbps * pin
        # --- far clamp: random far traffic is UPI-bound regardless of
        # pinning (and uses the PMEM caps even for DRAM, as the scalar
        # path does).
        if bool(far.any()):
            far_cap = np.where(
                is_read, ctx.warm_far_read_cap_pmem, cal.pmem.far_write_max
            )
            gbps = np.where(far, np.minimum(gbps, far_cap), gbps)
        if bool(fsdax.any()):
            gbps = np.where(fsdax, gbps * fsdax_factor, gbps)

    rows_at = np.array(idx, dtype=np.intp)
    flat.gbps[rows_at] = gbps
    flat.solo[rows_at] = gbps
    flat.issue[rows_at] = gbps
    flat.cap[rows_at] = gbps
    r_amp = flat.read_amp
    w_amp = flat.write_amp
    read_amp_l = read_amp.tolist()
    write_amp_l = write_amp.tolist()
    for k, j in enumerate(idx):
        r_amp[j] = read_amp_l[k]
        w_amp[j] = write_amp_l[k]


def _assemble_single(
    ctx: EvalContext,
    specs: Sequence[StreamSpec],
    flat: _FlatSolos,
    directory: DirectoryState,
) -> ResultColumns:
    """Fully vectorized cross-stream stage for all-single-stream batches.

    A single stream can trigger exactly one interaction: its own
    UPI-direction capacity clamp (``_apply_upi_capacity`` with a
    one-element group, which multiplies by ``cap/total`` — replicated
    here as the same multiply, not an assignment). The counter columns
    are the scalar collector's branch arms as mask selections.
    """
    cal = ctx.config.calibration
    n = len(specs)
    gbps = flat.gbps
    is_read = flat.is_read
    is_pmem = flat.is_pmem
    far = flat.far
    volume = flat.volume
    notes = flat.notes
    write_amp_l = flat.write_amp

    with np.errstate(divide="ignore", invalid="ignore"):
        if flat.any_far:
            upi_cap = ctx.upi_data_cap
            over = far & (gbps > upi_cap)
            if bool(over.any()):
                gbps = np.where(over, gbps * (upi_cap / gbps), gbps)
                for j in np.nonzero(over)[0].tolist():
                    notes[j] = notes[j] + ("UPI direction saturated",)
        occupancy_service = np.maximum(flat.cap, 1e-9)  # simlint: ignore[unit-literal] -- epsilon guard, not a unit
        rho = np.minimum(flat.issue / occupancy_service, 1.0)
        queue = rho + rho * rho / (2.0 * (1.0 - rho))
        occupancy = np.where(rho >= 1.0, 1.0, np.minimum(1.0, queue / (1.0 + queue)))
        # Counter columns are mask selections over the arrays above —
        # the same ``x if read else 0.0`` split the scalar collector
        # performs, applied to identical floats.
        read_amp = np.array(flat.read_amp, dtype=np.float64)
        write_amp = np.array(write_amp_l, dtype=np.float64)
        media_read = np.where(
            is_read,
            volume * read_amp,
            np.where(is_pmem & (write_amp > 1.0), volume * (write_amp - 1.0), 0.0),
        )
        media_written = np.where(is_read, 0.0, volume * write_amp)
        zeros = np.zeros(n, dtype=np.float64)
        app_read = np.where(is_read, volume, zeros)
        app_written = np.where(is_read, zeros, volume)
        rpq = np.where(is_read, occupancy, zeros)
        wpq = np.where(is_read, zeros, occupancy)
        upi_bytes = np.where(far, volume, zeros)
        if flat.any_far:
            # One direction, no reverse payload: the scalar collector's
            # ``min(1.0, max([utilization + 0.0]))`` reduces to the
            # utilization itself.
            util = np.minimum(
                1.0,
                (gbps / (1.0 - cal.upi.metadata_fraction)) / cal.upi.raw_per_direction,
            )
            upi_util = np.where(far, util, zeros)
        else:
            upi_util = zeros

    afters: list[DirectoryState] = [directory] * n
    if flat.any_far:
        touch_memo: dict[tuple[int, int], DirectoryState] = {}
        for j in np.nonzero(far)[0].tolist():
            spec = specs[j]
            pair = (spec.issuing_socket, spec.target_socket)
            after = touch_memo.get(pair)
            if after is None:
                after = directory.touch(*pair)
                touch_memo[pair] = after
            afters[j] = after

    out = ResultColumns()
    out.offsets = list(range(n + 1))
    out.specs = list(specs)
    out.gbps = gbps.tolist()
    out.solo_gbps = flat.solo.tolist()
    out.stream_notes = notes
    out.app_bytes_read = app_read.tolist()
    out.app_bytes_written = app_written.tolist()
    out.media_bytes_read = media_read.tolist()
    out.media_bytes_written = media_written.tolist()
    out.upi_bytes = upi_bytes.tolist()
    out.upi_utilization = upi_util.tolist()
    out.page_faults = flat.pages
    out.page_fault_seconds = flat.fault_seconds
    out.rpq_occupancy = rpq.tolist()
    out.wpq_occupancy = wpq.tolist()
    out.counter_notes = list(notes)
    out.directory_after = afters
    out._views = [None] * n
    return out


def _assemble_general(
    ctx: EvalContext,
    specs: Sequence[StreamSpec],
    offsets: list[int],
    flat: _FlatSolos,
    directory: DirectoryState,
) -> ResultColumns:
    """Cross-stream stage for multi-stream points, one point at a time.

    Every point has two or more streams (:func:`_assemble` routes
    single-stream points to :func:`_assemble_single`). Rebuilds a point's :class:`_Solo` objects from the vectorized arrays
    (bit-identical to the scalar solos by construction) and runs them
    through the *actual* scalar ``_Evaluator`` interaction methods — the
    one place the vector path reuses scalar code instead of mirroring
    it, because cross-stream group logic is data-dependent Python either
    way. Interactions that cannot fire for a point's stream shape are
    skipped via cheap conservative flags, and points where *no*
    interaction fires skip the object rebuild entirely: their rows are
    read straight off the flat arrays.

    Counters are likewise assembled from per-stream component columns
    computed once per batch (the same mask selections as
    :func:`_assemble_single` — interactions change only ``gbps`` and
    notes, never the issue/cap terms or amplifications those columns
    depend on), accumulated per point in stream order so every float
    fold matches the scalar collector's. Only points containing a far
    stream go through ``_collect_counters`` itself, for the UPI
    direction-utilization bookkeeping.
    """
    ev = evaluation._Evaluator(ctx, directory)
    gbps_l = flat.gbps.tolist()
    issue_l = flat.issue.tolist()
    cap_l = flat.cap.tolist()
    solo_l = flat.solo.tolist()
    read_amp_l = flat.read_amp
    write_amp_l = flat.write_amp
    notes_l = flat.notes
    volume_l = flat.volume.tolist()
    pages_l = flat.pages
    fault_l = flat.fault_seconds
    is_read_l = flat.is_read.tolist()
    far_l = flat.far.tolist()
    seq_l = [s.pattern is Pattern.SEQUENTIAL for s in specs]
    sock_l = [s.issuing_socket for s in specs]

    with np.errstate(divide="ignore", invalid="ignore"):
        # Identical to ``_Imc.occupancy`` over ``(issue, max(cap, eps))``.
        service = np.maximum(flat.cap, 1e-9)  # simlint: ignore[unit-literal] -- epsilon guard, not a unit
        rho = np.minimum(flat.issue / service, 1.0)
        queue = rho + rho * rho / (2.0 * (1.0 - rho))
        occ = np.where(rho >= 1.0, 1.0, np.minimum(1.0, queue / (1.0 + queue)))
        read_amp_a = np.array(read_amp_l, dtype=np.float64)
        write_amp_a = np.array(write_amp_l, dtype=np.float64)
        media_read_c = np.where(
            flat.is_read,
            flat.volume * read_amp_a,
            np.where(
                flat.is_pmem & (write_amp_a > 1.0),
                flat.volume * (write_amp_a - 1.0),
                0.0,
            ),
        )
        media_written_c = np.where(flat.is_read, 0.0, flat.volume * write_amp_a)
    occ_l = occ.tolist()
    media_read_l = media_read_c.tolist()
    media_written_l = media_written_c.tolist()

    out = ResultColumns()
    out_specs = out.specs
    out_gbps = out.gbps
    out_solo = out.solo_gbps
    out_notes = out.stream_notes
    make_solo = evaluation._Solo
    for p in range(len(offsets) - 1):
        lo = offsets[p]
        hi = offsets[p + 1]
        point_far = False
        for j in range(lo, hi):
            if far_l[j]:
                point_far = True
                break
        seq_reads = 0
        far_reads = 0
        has_read = has_write = False
        first_sock = sock_l[lo]
        multi_issuer = False
        for j in range(lo, hi):
            if is_read_l[j]:
                has_read = True
                if seq_l[j]:
                    seq_reads += 1
                if far_l[j]:
                    far_reads += 1
            else:
                has_write = True
            if sock_l[j] != first_sock:
                multi_issuer = True
        prefetch = seq_reads > 1
        mixed = has_read and has_write
        far_far = far_reads > 1
        interact = prefetch or mixed or multi_issuer or far_far or point_far
        mixed_only = mixed and not (
            prefetch or multi_issuer or far_far or point_far
        )
        row_base = len(out_specs)
        if mixed_only and hi - lo == 2:
            # The dominant mixed shape (Fig. 11): one near read + one
            # near write. ``_apply_mixed_interference`` reduces to a
            # single ``resolve`` when both streams share a device group
            # — replicated here with the identical float operations —
            # and to a no-op when they don't.
            jr, jw = (lo, lo + 1) if is_read_l[lo] else (lo + 1, lo)
            read_spec = specs[jr]
            write_spec = specs[jw]
            if (read_spec.target_socket, read_spec.media) == (
                write_spec.target_socket,
                write_spec.media,
            ):
                media = read_spec.media
                read_total = gbps_l[jr]
                write_total = gbps_l[jw]
                # Inlined ``mixed_model.resolve`` (same floats, same
                # order), skipping the outcome object.
                mp = ctx.mixed_params[media]
                write_demand = min(1.0, write_total / mp.write_max_gbps)
                read_demand = min(1.0, read_total / mp.read_max_gbps)
                read_gbps = read_total * (
                    1.0 / (1.0 + mp.read_coeff * write_demand)
                )
                write_gbps = write_total * (
                    1.0 / (1.0 + mp.write_coeff * read_demand ** mp.write_exponent)
                )
                utilization = (
                    read_gbps / mp.read_max_gbps + write_gbps / mp.write_max_gbps
                )
                if utilization > 1.0:
                    read_gbps /= utilization
                    write_gbps /= utilization
                read_scale = read_gbps / read_total if read_total > 0 else 1.0
                write_scale = write_gbps / write_total if write_total > 0 else 1.0
                note = "mixed read/write interference"
                for j, scale in ((lo, read_scale if lo == jr else write_scale),
                                 (lo + 1, read_scale if lo + 1 == jr else write_scale)):
                    out_specs.append(specs[j])
                    out_gbps.append(gbps_l[j] * scale)
                    out_notes.append(notes_l[j] + (note,))
                out_solo.extend(solo_l[lo:hi])
                interact = False
                rows_done = True
            else:
                # Different device groups: the scalar method loops two
                # one-sided groups and changes nothing.
                interact = False
                rows_done = False
        else:
            rows_done = False
        if rows_done:
            pass
        elif interact:
            solos = [
                make_solo(
                    specs[j],
                    gbps_l[j],
                    issue_l[j],
                    cap_l[j],
                    read_amp_l[j],
                    write_amp_l[j],
                    list(notes_l[j]),
                )
                for j in range(lo, hi)
            ]
            if prefetch:
                ev._apply_multi_stream_prefetch(solos)
            if mixed:
                ev._apply_mixed_interference(solos)
            if multi_issuer:
                ev._apply_shared_target(solos)
            if far_far:
                ev._apply_far_far_pollution(solos)
            if point_far:
                ev._apply_upi_capacity(solos)
            if multi_issuer:
                ev._apply_dram_package_efficiency(solos)
            for solo in solos:
                out_specs.append(solo.spec)
                out_gbps.append(solo.gbps)
                out_notes.append(tuple(solo.notes))
            out_solo.extend(solo_l[lo:hi])
        else:
            out_specs.extend(specs[lo:hi])
            out_gbps.extend(gbps_l[lo:hi])
            out_notes.extend(notes_l[lo:hi])
            out_solo.extend(solo_l[lo:hi])
        if point_far:
            # ``_collect_counters`` for the UPI payload/direction math;
            # also the only case the directory advances.
            counters = ev._collect_counters(solos)
            after = directory
            for solo in solos:
                if solo.spec.far:
                    after = after.touch(
                        solo.spec.issuing_socket, solo.spec.target_socket
                    )
            out.app_bytes_read.append(counters.app_bytes_read)
            out.app_bytes_written.append(counters.app_bytes_written)
            out.media_bytes_read.append(counters.media_bytes_read)
            out.media_bytes_written.append(counters.media_bytes_written)
            out.upi_bytes.append(counters.upi_bytes)
            out.upi_utilization.append(counters.upi_utilization)
            out.page_faults.append(counters.page_faults)
            out.page_fault_seconds.append(counters.page_fault_seconds)
            out.rpq_occupancy.append(counters.rpq_occupancy)
            out.wpq_occupancy.append(counters.wpq_occupancy)
            out.counter_notes.append(tuple(counters.notes))
            out.directory_after.append(after)
        else:
            # Near-only point: fold the precomputed per-stream components
            # in stream order, exactly as the scalar collector would.
            app_read = app_written = 0.0
            media_read = media_written = 0.0
            rpq = wpq = 0.0
            faults = 0
            fault_seconds = 0.0
            counter_notes: tuple[str, ...] = ()
            for j in range(lo, hi):
                if is_read_l[j]:
                    app_read += volume_l[j]
                    media_read += media_read_l[j]
                    rpq = max(rpq, occ_l[j])
                else:
                    app_written += volume_l[j]
                    media_written += media_written_l[j]
                    media_read += media_read_l[j]
                    wpq = max(wpq, occ_l[j])
                faults += pages_l[j]
                fault_seconds += fault_l[j]
            for k in range(row_base, row_base + (hi - lo)):
                counter_notes += out_notes[k]
            out.app_bytes_read.append(app_read)
            out.app_bytes_written.append(app_written)
            out.media_bytes_read.append(media_read)
            out.media_bytes_written.append(media_written)
            out.upi_bytes.append(0.0)
            out.upi_utilization.append(0.0)
            out.page_faults.append(faults)
            out.page_fault_seconds.append(fault_seconds)
            out.rpq_occupancy.append(rpq)
            out.wpq_occupancy.append(wpq)
            out.counter_notes.append(counter_notes)
            out.directory_after.append(directory)
        out.offsets.append(len(out_specs))
        out._views.append(None)
    return out


def _assemble(
    ctx: EvalContext,
    specs: Sequence[StreamSpec],
    offsets: list[int],
    multi: list[int],
    flat: _FlatSolos,
    directory: DirectoryState,
) -> ResultColumns:
    """The cross-stream stage, routed by each point's stream count.

    Single-stream points go through :func:`_assemble_single` and only
    the ``multi`` points (indices, ascending) through
    :func:`_assemble_general`. A row is a function of its own point's
    solos alone, so each kind prices identically whatever else shares
    its batch. A batch holding both kinds prices each over its own
    subset of the flat solos, and one column-wise
    :meth:`ResultColumns.take` puts the rows back into point order,
    which also restores the flat stream order the caller's ``emit``
    indexes by.
    """
    n = len(offsets) - 1
    if not multi:
        return _assemble_single(ctx, specs, flat, directory)
    if len(multi) == n:
        return _assemble_general(ctx, specs, offsets, flat, directory)
    is_multi = np.zeros(n, dtype=bool)
    is_multi[multi] = True
    singles = np.flatnonzero(~is_multi)
    single_streams = np.asarray(offsets[:-1], dtype=np.intp)[singles].tolist()
    multi_streams: list[int] = []
    multi_offsets = [0]
    for p in multi:
        multi_streams.extend(range(offsets[p], offsets[p + 1]))
        multi_offsets.append(len(multi_streams))

    out = _assemble_single(
        ctx,
        [specs[j] for j in single_streams],
        flat.subset(single_streams),
        directory,
    )
    out.extend(
        _assemble_general(
            ctx,
            [specs[j] for j in multi_streams],
            multi_offsets,
            flat.subset(multi_streams),
            directory,
        )
    )
    # ``out`` holds the single-stream rows, then the multi-stream rows;
    # ``order[p]`` is point ``p``'s row in it.
    order = np.empty(n, dtype=np.intp)
    order[singles] = np.arange(len(singles))
    order[multi] = np.arange(len(singles), n)
    return out.take(order.tolist())


def _write_cap_size_factor(access_size: int) -> float:
    """The sub-kilobyte / super-4K write-cap factor, with Python ``**``.

    Mirrors the two power branches of
    ``_Evaluator._sequential_write_media_cap`` exactly; computed per
    unique access size because ``np.power`` is not bit-identical to
    CPython's ``**``.
    """
    if access_size < 1024:
        return (access_size / 1024.0) ** 0.08
    if access_size > 4096:
        return (4096.0 / access_size) ** 0.02
    return 1.0
