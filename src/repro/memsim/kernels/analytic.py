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
multi-stream points. Per-stream solos are always vectorized. So are the
cross-stream interactions of one- and two-stream points, the latter as
masks over pairs of flat positions; points of three or more streams run
their interactions through the exact scalar ``_Evaluator`` methods on
the vectorized solos. The residual fallback
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
from repro.memsim.constants import INTERLEAVE_SIZE, OPTANE_LINE, UPI_REQUEST_FRACTION
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
    The cross-stream stage (:func:`_assemble`) is vectorized for one- and
    two-stream points: a single stream can trigger only its own
    UPI-direction clamp, and two-stream points are priced as pairs of
    flat positions. Only points of three or more streams run through the
    exact scalar ``_Evaluator`` methods over the vectorized solos, which
    is bit-identical by construction. Every row is written straight into
    point order.

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
    for streams in points:
        specs.extend(streams)
        offsets.append(len(specs))
    config = ctx.config
    if not specs:
        return ResultColumns(), lambda recorder, i, **kw: None

    flat = _solo_columns(ctx, specs, directory)
    out = _assemble(ctx, specs, offsets, flat, directory)
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

    def __init__(self, n: int) -> None:
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
        self.pages = np.zeros(n, dtype=np.int64)
        self.fault_seconds = np.zeros(n, dtype=np.float64)
        self.any_far = False


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
    # PMEM writes and far pinned writes of either media amplify.
    if bool((~is_read).any()):
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


#: The notes the cross-stream stage can add to a stream, in the order
#: ``evaluate`` applies their interactions. Bit ``k`` of a stream's note
#: code stands for ``_NOTES[k]``, so a code's notes come out in that
#: order, as the scalar evaluator appends them.
_NOTES: tuple[str, ...] = (
    "prefetcher tracks multiple streams",
    "mixed read/write interference",
    "near+far readers on one target: coherence writes + RPQ pollution",
    "near+far writers on one target PMEM",
    "both sockets read far: mutual queue pollution",
    "UPI direction saturated",
    "dual-socket DRAM package efficiency",
)
(
    _PREFETCH_BIT, _MIXED_BIT, _SHARED_READ_BIT, _SHARED_WRITE_BIT,
    _FAR_FAR_BIT, _UPI_BIT, _PACKAGE_BIT,
) = (1 << k for k in range(len(_NOTES)))


#: The counter columns a point folds over its streams with ``+`` and
#: with ``max``, in the row order of :func:`_assemble`'s stacks.
_SUMMED: tuple[str, ...] = (
    "app_bytes_read",
    "app_bytes_written",
    "media_bytes_read",
    "media_bytes_written",
    "upi_bytes",
    "page_fault_seconds",
)
_MAXED: tuple[str, ...] = ("rpq_occupancy", "wpq_occupancy")


def _assemble(
    ctx: EvalContext,
    specs: Sequence[StreamSpec],
    offsets: list[int],
    flat: _FlatSolos,
    directory: DirectoryState,
) -> ResultColumns:
    """The cross-stream stage and the counters, written in point order.

    Flat stream order is point order, so every column is computed over
    the flat arrays and each point's row read off its own streams:

    * a single-stream point can trigger one interaction, its own
      UPI-direction clamp (``_apply_upi_capacity`` over a one-element
      group multiplies by ``cap/total``, replicated as the same multiply);
    * two-stream points go through :func:`_pair_stage` as pairs of flat
      positions ``(lo, lo + 1)``;
    * points of three or more streams go through :func:`_scalar_rows`.

    Interactions change only ``gbps`` and notes, never the issue/cap
    terms or amplifications, so the per-stream counter components
    (occupancy, media and application bytes) are computed once over all
    streams. A point's counters fold its streams' components in stream
    order, as ``_collect_counters`` does: a one-stream fold ``0.0 + x``
    is ``x``, a two-stream one ``x_a + x_b``. Each point-level column is
    scattered into a length-``n`` array by point index and converted to
    a list once.
    """
    cal = ctx.config.calibration
    n = len(offsets) - 1
    one_stream_each = n == len(specs)
    if one_stream_each:
        # Point and flat stream positions coincide.
        first = single_points = singles = np.arange(n)
        pair_points = pairs = np.empty(0, dtype=np.intp)
        many: list[int] = []
    else:
        bounds = np.array(offsets, dtype=np.intp)
        first = bounds[:-1]
        count = np.diff(bounds)
        single_points = np.flatnonzero(count == 1)
        singles = first[single_points]
        pair_points = np.flatnonzero(count == 2)
        pairs = first[pair_points]
        many = np.flatnonzero(count > 2).tolist()
    gbps = flat.gbps.copy()
    is_read = flat.is_read
    far = flat.far
    volume = flat.volume
    note_bits = np.zeros(len(specs), dtype=np.int64)
    upi_cap = ctx.upi_data_cap
    raw = cal.upi.raw_per_direction
    keep = 1.0 - cal.upi.metadata_fraction

    with np.errstate(divide="ignore", invalid="ignore"):
        if flat.any_far:
            over = singles[far[singles] & (gbps[singles] > upi_cap)]
            if over.size:
                gbps[over] = gbps[over] * (upi_cap / gbps[over])
                note_bits[over] = _UPI_BIT
        pair_util = (
            _pair_stage(ctx, specs, flat, pairs, gbps, note_bits)
            if pairs.size
            else None
        )
        # Identical to ``_Imc.occupancy`` over ``(issue, max(cap, eps))``.
        service = np.maximum(flat.cap, 1e-9)  # simlint: ignore[unit-literal] -- epsilon guard, not a unit
        rho = np.minimum(flat.issue / service, 1.0)
        queue = rho + rho * rho / (2.0 * (1.0 - rho))
        occupancy = np.where(rho >= 1.0, 1.0, np.minimum(1.0, queue / (1.0 + queue)))
        # Each component is the scalar collector's ``x if read else 0.0``
        # split as a mask selection over identical floats, one row per
        # counter: ``summed`` rows fold a point's streams with ``+``,
        # ``maxed`` rows with ``max``.
        read_amp = np.array(flat.read_amp, dtype=np.float64)
        write_amp = np.array(flat.write_amp, dtype=np.float64)
        summed = np.array((
            np.where(is_read, volume, 0.0),
            np.where(is_read, 0.0, volume),
            np.where(
                is_read,
                volume * read_amp,
                np.where(flat.is_pmem & (write_amp > 1.0), volume * (write_amp - 1.0), 0.0),
            ),
            np.where(is_read, 0.0, volume * write_amp),
            np.where(far, volume, 0.0),
            flat.fault_seconds,
        ))
        maxed = np.array((np.where(is_read, occupancy, 0.0), np.where(is_read, 0.0, occupancy)))
        # One direction, no reverse payload: the collector's
        # ``min(1.0, max([utilization + 0.0]))`` is the utilization.
        upi_util = np.where(far, np.minimum(1.0, (gbps / keep) / raw), 0.0)
    faults = flat.pages
    if not one_stream_each:
        point_sums = summed[:, first]
        point_maxes = maxed[:, first]
        faults = faults[first]
        upi_util = upi_util[first]
        if pairs.size:
            point_sums[:, pair_points] = summed[:, pairs] + summed[:, pairs + 1]
            point_maxes[:, pair_points] = np.maximum(maxed[:, pairs], maxed[:, pairs + 1])
            faults[pair_points] = flat.pages[pairs] + flat.pages[pairs + 1]
            upi_util[pair_points] = pair_util
        summed, maxed = point_sums, point_maxes

    notes = flat.notes
    if note_bits.any():
        suffixes: dict[int, tuple[str, ...]] = {}
        bits_l = note_bits.tolist()
        for j in np.flatnonzero(note_bits).tolist():
            code = bits_l[j]
            suffix = suffixes.get(code)
            if suffix is None:
                suffix = tuple(note for k, note in enumerate(_NOTES) if code >> k & 1)
                suffixes[code] = suffix
            notes[j] = notes[j] + suffix

    afters: list[DirectoryState] = [directory] * n
    if flat.any_far:
        # A point's state is ``directory`` touched by its far streams'
        # (issuing, target) pairs in stream order, memoized per sequence.
        touched: dict[tuple, DirectoryState] = {}

        def after(key: tuple) -> DirectoryState:
            state = touched.get(key)
            if state is None:
                state = directory
                for pair in key:
                    state = state.touch(*pair)
                touched[key] = state
            return state

        hit = far[singles]
        for p, j in zip(single_points[hit].tolist(), singles[hit].tolist()):
            spec = specs[j]
            afters[p] = after(((spec.issuing_socket, spec.target_socket),))
        hit = far[pairs] | far[pairs + 1]
        for p, j in zip(pair_points[hit].tolist(), pairs[hit].tolist()):
            afters[p] = after(tuple(
                (spec.issuing_socket, spec.target_socket)
                for spec in specs[j : j + 2]
                if spec.far
            ))

    if one_stream_each:
        counter_notes = list(notes)
    else:
        counter_notes = _pick(notes, offsets[:-1])
        for p, j in zip(pair_points.tolist(), pairs.tolist()):
            counter_notes[p] = notes[j] + notes[j + 1]

    for p, (solos, counters, state) in zip(
        many, _scalar_rows(ctx, specs, offsets, many, flat, directory)
    ):
        for j, solo in enumerate(solos, offsets[p]):
            gbps[j] = solo.gbps
            notes[j] = tuple(solo.notes)
        summed[:, p] = [getattr(counters, name) for name in _SUMMED]
        maxed[:, p] = (counters.rpq_occupancy, counters.wpq_occupancy)
        faults[p] = counters.page_faults
        upi_util[p] = counters.upi_utilization
        counter_notes[p] = tuple(counters.notes)
        afters[p] = state

    out = ResultColumns()
    out.offsets = offsets
    out.specs = list(specs)
    out.gbps = gbps.tolist()
    out.solo_gbps = flat.solo.tolist()
    out.stream_notes = notes
    for name, column in zip(_SUMMED + _MAXED, summed.tolist() + maxed.tolist()):
        setattr(out, name, column)
    out.page_faults = faults.tolist()
    out.upi_utilization = upi_util.tolist()
    out.counter_notes = counter_notes
    out.directory_after = afters
    out._views = [None] * n
    return out


def _pair_stage(
    ctx: EvalContext,
    specs: Sequence[StreamSpec],
    flat: _FlatSolos,
    pairs: np.ndarray,
    gbps: np.ndarray,
    note_bits: np.ndarray,
) -> np.ndarray:
    """The six interactions of every two-stream point, over pair arrays.

    ``pairs`` holds each point's first flat position ``a``; its second
    stream sits at ``b = a + 1``. Per-stream arrays here have two rows,
    row 0 for the ``a`` streams and row 1 for the ``b`` streams, so a
    per-pair mask broadcasts over both. Each interaction of ``evaluate``
    is applied in the scalar order (prefetch, mixed, shared target,
    far-far, UPI capacity, DRAM package) as a mask over the pairs that
    does the scalar method's float operations in the same order: a group
    total ``sum()`` of two streams is ``0 + a + b``, which is exactly
    ``a + b``. The mixed model's ``**`` runs in Python once per unique
    operand. Updates ``gbps`` and ``note_bits`` at both positions and
    returns each pair's UPI utilization, folded over its directions as
    ``_collect_counters`` does.
    """
    cal = ctx.config.calibration
    at = np.array((pairs, pairs + 1))
    g = gbps[at]
    bits = np.zeros(at.shape, dtype=np.int64)
    read = flat.is_read[at]
    pmem = flat.is_pmem[at]
    far = flat.far[at]
    issuing, target, sequential = (
        np.array(column).reshape(at.shape)
        for column in zip(*[
            (spec.issuing_socket, spec.target_socket, spec.pattern is Pattern.SEQUENTIAL)
            for spec in _pick(specs, at.ravel().tolist())
        ])
    )
    two_issuers = issuing[0] != issuing[1]
    same_group = (target[0] == target[1]) & (pmem[0] == pmem[1])
    any_far = far[0] | far[1]

    # 1. Two sequential readers on one socket share its prefetcher.
    fire = (read & sequential).all(axis=0) & ~two_issuers
    if fire.any():
        g = np.where(fire, g * ctx.components.prefetcher.multi_stream_factor(2), g)
        bits |= np.where(fire, _PREFETCH_BIT, 0)

    # 2. A reader and a writer on one device group (``mixed.resolve``).
    mixed = np.flatnonzero(same_group & (read[0] != read[1]))
    if mixed.size:
        a_reads = read[0, mixed]
        reads = np.where(a_reads, g[0, mixed], g[1, mixed])
        writes = np.where(a_reads, g[1, mixed], g[0, mixed])
        on_pmem = pmem[0, mixed]
        params = (ctx.mixed_params[_DRAM], ctx.mixed_params[_PMEM])
        read_max, write_max, read_coeff, write_coeff = (
            np.where(on_pmem, getattr(params[1], name), getattr(params[0], name))
            for name in ("read_max_gbps", "write_max_gbps", "read_coeff", "write_coeff")
        )
        write_demand = np.minimum(1.0, writes / write_max)
        read_demand = np.minimum(1.0, reads / read_max)
        read_factor = 1.0 / (1.0 + read_coeff * write_demand)
        pow_memo: dict[tuple[float, float], float] = {}
        powered = []
        for demand, is_pmem in zip(read_demand.tolist(), on_pmem.tolist()):
            key = (demand, params[is_pmem].write_exponent)
            value = pow_memo.get(key)
            if value is None:
                value = pow_memo[key] = key[0] ** key[1]
            powered.append(value)
        write_factor = 1.0 / (1.0 + write_coeff * np.array(powered, dtype=np.float64))
        read_gbps = reads * read_factor
        write_gbps = writes * write_factor
        utilization = read_gbps / read_max + write_gbps / write_max
        over = utilization > 1.0
        read_gbps = np.where(over, read_gbps / utilization, read_gbps)
        write_gbps = np.where(over, write_gbps / utilization, write_gbps)
        read_scale = np.where(reads > 0, read_gbps / reads, 1.0)
        write_scale = np.where(writes > 0, write_gbps / writes, 1.0)
        g[:, mixed] = g[:, mixed] * np.where(read[:, mixed], read_scale, write_scale)
        bits[:, mixed] |= _MIXED_BIT

    # 3. One target read, or PMEM written, from both sockets at once.
    shared = same_group & (read[0] == read[1]) & two_issuers & (read[0] | pmem[0])
    if shared.any():
        cap = np.where(
            read[0],
            np.where(pmem[0], cal.pmem.shared_target_read_max, cal.dram.shared_target_read_max),
            cal.pmem.mixed_socket_write_max,
        )
        total = g[0] + g[1]
        fire = shared & (total > cap)
        g = np.where(fire, g * (cap / total), g)
        bits |= np.where(fire & read[0], _SHARED_READ_BIT, np.where(fire, _SHARED_WRITE_BIT, 0))

    # 4. Far reads in two directions pollute each other's queues.
    far_far = (far & read).all(axis=0) & (two_issuers | (target[0] != target[1]))
    if far_far.any():
        cap = np.where(
            pmem, cal.pmem.far_far_read_per_socket, cal.dram.far_far_read_per_socket
        )
        clip = far_far & (g > cap)
        g = np.where(clip, cap, g)
        bits |= np.where(clip, _FAR_FAR_BIT, 0)

    # 5. Far payloads per UPI direction (read data flows home -> issuer).
    if any_far.any():
        source = np.where(read, target, issuing)
        sink = np.where(read, issuing, target)
        both = far[0] & far[1]
        one_way = both & (source[0] == source[1]) & (sink[0] == sink[1])
        opposite = both & (source[0] == sink[1]) & (sink[0] == source[1])
        cap = ctx.upi_data_cap
        total = np.where(one_way, g[0] + g[1], g)
        over = far & (total > cap)
        g = np.where(over, g * (cap / total), g)
        bits |= np.where(over, _UPI_BIT, 0)

    # 6. Both sockets streaming near DRAM reads.
    fire = (~pmem & read & ~far).all(axis=0) & two_issuers
    if fire.any():
        g = np.where(fire, g * cal.dram.dual_socket_efficiency, g)
        bits |= np.where(fire, _PACKAGE_BIT, 0)

    gbps[at] = g
    note_bits[at] = bits
    if not any_far.any():
        return np.zeros(len(pairs), dtype=np.float64)
    # ``_collect_counters``: each direction's payload (``0.0 + a``, or
    # ``a + b`` when both flow one way) plus the request traffic of the
    # payload flowing the opposite way.
    payload = np.where(one_way, g[0] + g[1], g)
    reverse = np.where(opposite, g[::-1], 0.0)
    raw = cal.upi.raw_per_direction
    util = np.minimum(
        1.0, (payload / (1.0 - cal.upi.metadata_fraction)) / raw
    ) + reverse * UPI_REQUEST_FRACTION / raw
    util = np.where(both, np.maximum(util[0], util[1]), np.where(far[0], util[0], util[1]))
    return np.where(any_far, np.minimum(1.0, util), 0.0)


def _scalar_rows(
    ctx: EvalContext,
    specs: Sequence[StreamSpec],
    offsets: list[int],
    points: list[int],
    flat: _FlatSolos,
    directory: DirectoryState,
) -> "list[tuple[list[evaluation._Solo], evaluation.PerfCounters, DirectoryState]]":
    """The cross-stream stage of ``points`` (three or more streams each).

    Rebuilds each point's :class:`_Solo` objects from the flat arrays
    (bit-identical to the scalar solos by construction) and runs the
    scalar ``_Evaluator`` interactions and ``_collect_counters`` on
    them. Returns ``(solos, counters, directory_after)`` per point.
    """
    ev = evaluation._Evaluator(ctx, directory)
    rows = []
    for p in points:
        solos = [
            evaluation._Solo(
                specs[j],
                float(flat.gbps[j]),
                float(flat.issue[j]),
                float(flat.cap[j]),
                flat.read_amp[j],
                flat.write_amp[j],
                list(flat.notes[j]),
            )
            for j in range(offsets[p], offsets[p + 1])
        ]
        ev._apply_multi_stream_prefetch(solos)
        ev._apply_mixed_interference(solos)
        ev._apply_shared_target(solos)
        ev._apply_far_far_pollution(solos)
        ev._apply_upi_capacity(solos)
        ev._apply_dram_package_efficiency(solos)
        after = directory
        for solo in solos:
            if solo.spec.far:
                after = after.touch(solo.spec.issuing_socket, solo.spec.target_socket)
        rows.append((solos, ev._collect_counters(solos), after))
    return rows


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
