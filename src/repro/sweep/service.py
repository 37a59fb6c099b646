"""Memoizing evaluation service over the pure memsim core.

The service is the single funnel through which the reproduction
evaluates bandwidth: experiments, the SSB cost model, the optimizer, the
advisor, the insights and the CLI all call
:meth:`EvaluationService.evaluate` on :func:`default_service`, most of
them through :func:`stream_gbps`. Because the core is pure,
identical requests return identical (cached) results — the optimizer and
the sensitivity analysis re-price the same grid points constantly, and
regenerating a figure twice in one process is nearly free.

Cache-key normalization: an evaluation can only observe the warmth of
the far-read (issuing, target) socket pairs among its streams
(:func:`repro.memsim.evaluation.observable_pairs`), so the directory is
restricted to those pairs before keying. All near-only sweeps therefore
share one entry regardless of the caller's directory state, while the
full input state still determines the returned
:attr:`~repro.memsim.evaluation.BandwidthResult.directory_after`.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Sequence

from repro.errors import GridPointError
from repro.memsim import evaluation
from repro.memsim.config import DirectoryState, MachineConfig
from repro.memsim.evaluation import BandwidthResult, observable_pairs
from repro.memsim.spec import StreamSpec
from repro.obs import Recorder, default_recorder
from repro.sweep.cache import (
    CacheStats,
    CacheValue,
    DiskCache,
    MemoCache,
    request_digest,
)

if TYPE_CHECKING:
    from repro.memsim.kernels import ResultColumns

#: The content key one evaluation is memoized under: the machine, the
#: streams, and the *observable* projection of the directory state.
RequestKey = tuple[MachineConfig, tuple[StreamSpec, ...], DirectoryState]


def request_key(
    config: MachineConfig,
    streams: "list[StreamSpec] | tuple[StreamSpec, ...]",
    directory: DirectoryState | None = None,
) -> RequestKey:
    """The content key ``evaluate`` results are cached under.

    Normalizes exactly the way :meth:`EvaluationService.evaluate` does:
    the directory is restricted to the far-read pairs the streams can
    observe, so callers comparing keys (the serving layer counts
    in-window repeats with this) agree with the cache about which
    requests are the same computation. The full input state still
    determines the returned ``directory_after`` — two requests may share
    a key yet receive differently-rebased results.
    """
    streams = tuple(streams)
    state = directory if directory is not None else DirectoryState.cold()
    return (config, streams, state.restrict(observable_pairs(streams)))


class EvaluationService:
    """Content-keyed memo (and optional disk) cache around ``evaluate``.

    Parameters
    ----------
    disk_cache:
        Optional :class:`~repro.sweep.cache.DiskCache`; consulted on memo
        misses and populated on computes, making results reusable across
        processes.
    memoize:
        Keep results in memory (default). Disabling is only useful for
        measuring the uncached baseline in benchmarks.
    """

    def __init__(
        self,
        disk_cache: DiskCache | None = None,
        *,
        memoize: bool = True,
    ) -> None:
        self._memo = MemoCache() if memoize else None
        self._disk = disk_cache
        self.stats = CacheStats()

    @property
    def disk_cache(self) -> DiskCache | None:
        """The backing :class:`DiskCache`, if any.

        Exposed so the cluster coordinator can back its shared cache
        tier with the same directory (the disk format is atomic-write,
        so concurrent readers and writers are safe).
        """
        return self._disk

    def evaluate(
        self,
        config: MachineConfig,
        streams: list[StreamSpec] | tuple[StreamSpec, ...],
        directory: DirectoryState | None = None,
        *,
        recorder: Recorder | None = None,
    ) -> BandwidthResult:
        """Cached equivalent of :func:`repro.memsim.evaluation.evaluate`.

        Returns an independent :class:`BandwidthResult` copy on cache
        hits, so callers may freely annotate its counters. Bit-identical
        to the uncached call — including ``directory_after``, which is
        recomputed from the *full* input state on every call.

        ``recorder`` (default: the process-wide
        :func:`repro.obs.default_recorder`) receives cache hit/miss
        counters. It is a sink, never a cache-key component: a cached
        hit replays a ``sweep.cache_hit`` event, *not* the evaluation's
        original counters.
        """
        rec = recorder if recorder is not None else default_recorder()
        streams = tuple(streams)
        state = directory if directory is not None else DirectoryState.cold()
        key = request_key(config, streams, state)
        stored, digest = self._lookup(key, rec)
        if stored is not None:
            return self._deliver(stored, streams, state)

        self.stats.misses += 1
        if rec.enabled:
            rec.incr("sweep.cache.misses_count")
        result = evaluation.evaluate(
            config, streams, key[2], recorder=rec if rec.enabled else None
        )
        if self._memo is not None:
            self._memo.put(key, result)
        if self._disk is not None and digest is not None:
            self._disk.put(digest, result)
        return self._deliver(result, streams, state)

    def contains(
        self,
        config: MachineConfig,
        streams: "list[StreamSpec] | tuple[StreamSpec, ...]",
        directory: DirectoryState | None = None,
    ) -> bool:
        """Whether this request is already answerable from a local cache.

        A silent peek: neither :attr:`stats` nor any recorder is touched,
        so a cache *tier above this service* (the cluster backend's
        shared cache) can decide which points to fetch remotely without
        perturbing the hit/miss accounting the real lookups produce.
        """
        streams = tuple(streams)
        key = request_key(config, streams, directory)
        if self._memo is not None and self._memo.get(key) is not None:
            return True
        if self._disk is not None:
            digest = request_digest(config, streams, key[2])
            return self._disk.get_ref(digest) is not None
        return False

    def seed(
        self,
        config: MachineConfig,
        streams: "list[StreamSpec] | tuple[StreamSpec, ...]",
        columns: "ResultColumns",
        row: int,
        directory: DirectoryState | None = None,
    ) -> None:
        """Install row ``row`` of ``columns`` as this request's memo entry.

        Used by the cluster backend to pre-load results another worker
        computed: the subsequent :meth:`evaluate` /
        :meth:`evaluate_grid_columns` lookup then counts a normal memo
        hit, which is exactly how shared-tier accounting "carries over"
        into ``sweep.cache.*``. Seeding itself is silent (no stats).
        """
        if self._memo is None:
            return
        key = request_key(config, tuple(streams), directory)
        self._memo.put(key, (columns, row))

    def evaluate_grid_columns(
        self,
        config: MachineConfig,
        points: Sequence[tuple[StreamSpec, ...] | list[StreamSpec]],
        directory: DirectoryState | None = None,
        *,
        recorder: Recorder | None = None,
        labels: Sequence[str] | None = None,
        grid_name: str | None = None,
    ) -> "ResultColumns":
        """Cached, batched grid evaluation producing a column batch.

        The one batched evaluation entry point. Points that the
        vectorized analytic kernel covers
        (:func:`repro.memsim.kernels.classify_point` returning ``None`` —
        every point family the scalar evaluator can price) and that miss
        both caches are computed in one structure-of-arrays pass
        (:func:`repro.memsim.kernels.evaluate_points_columns`); the
        residual fallback set (empty points, unknown or core-less
        sockets, missing media) goes through :meth:`evaluate` unchanged,
        with each fallback tallied on the
        ``sweep.vector.fallback_count`` counter family labeled by
        reason. Rows come back in ``points`` order and are
        **bit-identical** to a loop of :meth:`evaluate` calls over
        ``points`` — cache keys, stored entries, and hit/miss tallies
        included, so a grid primed through this method services
        per-point calls (and vice versa) without recomputation.

        A point repeating an earlier point of the same call behaves as
        it would in that loop: it takes the earlier row and counts a
        memo hit (with its ``sweep.cache_hit`` event) instead of a miss,
        and replays no evaluation probes. Repeats are found where the
        batch is stored: a key the memo already holds for *this* batch
        at an earlier row. A service built with ``memoize=False`` counts
        every repeat as a miss.

        No per-point result object is materialized anywhere on this
        path: cache hits and batch computes alike move between the
        caches and the output as column rows.

        A failing point raises :class:`GridPointError` carrying the input
        index (plus the point ``label`` and ``grid_name`` when given, so
        the message names the poisoned point) and the partial batch of
        every row completed before the failure. If the batch kernel
        itself fails, the batched points are transparently re-run through
        the scalar path — the error (if it reproduces) is then attributed
        to the exact point that raised it.
        """
        # Imported lazily (and not at module top) to keep NumPy off the
        # import path of callers that never batch.
        from repro.memsim.context import eval_context
        from repro.memsim.kernels import (
            ResultColumns,
            classify_point,
            evaluate_points_columns,
        )

        rec = recorder if recorder is not None else default_recorder()
        state = directory if directory is not None else DirectoryState.cold()
        normalized_points = [tuple(streams) for streams in points]

        def fail(index: int, exc: Exception, partial: "ResultColumns") -> GridPointError:
            label = labels[index] if labels is not None else None
            return GridPointError(
                index, exc, label=label, grid=grid_name, partial=partial
            )

        try:
            ctx = eval_context(config)
        except Exception as exc:
            # A config the core rejects fails every point; blame the first.
            raise fail(0, exc, ResultColumns()) from exc

        # Each point is keyed under the directory restricted to *its*
        # observable far-read pairs, exactly as :meth:`evaluate` keys it;
        # points sharing a pair set share the restricted state object.
        # Cache hits are held as (columns, row) references — or plain
        # results when the per-point path stored them — until the output
        # assembly loop copies their rows out.
        restricted: dict[frozenset, DirectoryState] = {}

        def normalized_for(streams: tuple[StreamSpec, ...]) -> DirectoryState:
            pairs = observable_pairs(streams)
            norm = restricted.get(pairs)
            if norm is None:
                norm = state.restrict(pairs)
                restricted[pairs] = norm
            return norm

        stored: dict[int, CacheValue] = {}
        fallback: dict[int, str] = {}
        batch_points: list[tuple[StreamSpec, ...]] = []
        batch_keys: list[RequestKey] = []
        batch_digests: list[str | None] = []
        for i, streams in enumerate(normalized_points):
            reason = classify_point(ctx, streams)
            if reason is not None:
                fallback[i] = reason
                continue
            key = (config, streams, normalized_for(streams))
            hit, digest = self._lookup(key, rec)
            if hit is not None:
                stored[i] = hit
                continue
            batch_points.append(streams)
            batch_keys.append(key)
            batch_digests.append(digest)

        computed: "ResultColumns | None" = None
        emit = None
        if batch_points:
            try:
                # Computed against the caller's *full* state: a point can
                # only observe the warmth of its own far-read pairs, which
                # the restricted key state preserves by construction, so
                # the rows (and their ``directory_after``) are exactly
                # what per-point evaluation against ``state`` produces.
                computed, emit = evaluate_points_columns(ctx, batch_points, state)
            except Exception:
                # The batch kernel failed wholesale. The loop below
                # re-runs the misses through the scalar path, which
                # attributes the error to the exact point — and completes
                # the sweep if the failure was batch-only. Nothing was
                # tallied yet, so the scalar calls' own hit/miss
                # accounting stays exact.
                computed = None
        stored_afters: list[DirectoryState] = []
        # Batch row -> the earlier batch row it repeats.
        repeats: dict[int, int] = {}
        if computed is not None:
            # Stored entries must be byte-identical to what the per-point
            # path stores: results computed against the point's
            # *normalized* state, so their ``directory_after`` is the
            # normalized state plus the point's own far traversals.
            stored_afters = [_rebased(key[2], key[1]) for key in batch_keys]
            if self._memo is not None or self._disk is not None:
                stored_batch = ResultColumns()
                for pos, after in enumerate(stored_afters):
                    stored_batch.append_from(computed, pos, directory_after=after)
                if self._memo is not None:
                    # A key already holding *this* batch at an earlier row
                    # repeats that row: the per-point loop would have found
                    # it in the memo.
                    for pos, key in enumerate(batch_keys):
                        entry = (stored_batch, pos)
                        held = self._memo.setdefault(key, entry)
                        if held is not entry and type(held) is tuple and held[0] is stored_batch:
                            repeats[pos] = held[1]
                if self._disk is not None:
                    # One block write for the whole batch — the entries the
                    # per-point path would have written, fused.
                    self._disk.put_columns(
                        [digest for digest in batch_digests if digest is not None],
                        stored_batch,
                    )
            misses = len(batch_points) - len(repeats)
            self.stats.misses += misses
            if rec.enabled:
                rec.incr("sweep.cache.misses_count", misses)

        # Batched points are emitted — and fallback points evaluated — in
        # ``points`` order: float addition is order-sensitive at the last
        # ulp, so recorder counters must accumulate exactly as the
        # per-point path would. The output batch is assembled fresh (rows
        # copied out of cached batches), so annotating a view of the
        # returned columns can never corrupt a stored entry.
        emitting = rec.enabled
        if emitting:
            from repro.obs import probes
        out = ResultColumns()
        pos = 0
        for i, streams in enumerate(normalized_points):
            hit = stored.get(i)
            if hit is not None:
                # Rebase the stored (normalized-state) row onto the
                # caller's state, exactly as :meth:`_deliver` does.
                after = _rebased(state, streams)
                if type(hit) is tuple:
                    columns, row = hit
                    out.append_from(columns, row, directory_after=after)
                else:
                    out.append_result(hit, directory_after=after)
                continue
            reason = fallback.get(i)
            if reason is None:
                if computed is not None:
                    earlier = repeats.get(pos)
                    if earlier is not None:
                        self._count_hit(rec, "memo", len(streams))
                    elif emitting and emit is not None:
                        # Probes replay against the normalized states the
                        # per-point path evaluates under, not the full
                        # input state the batch ran against.
                        emit(rec, pos, before=batch_keys[pos][2], after=stored_afters[pos])
                    out.append_from(computed, pos if earlier is None else earlier)
                    pos += 1
                    continue
                pos += 1  # batch failed: fall through to the scalar path
            elif emitting:
                probes.emit_vector_fallback(rec, reason)
            try:
                out.append_result(
                    self.evaluate(config, streams, state, recorder=rec)
                )
            except Exception as exc:
                raise fail(i, exc, out) from exc
        return out

    def _lookup(
        self, key: RequestKey, rec: Recorder
    ) -> tuple[CacheValue | None, str | None]:
        """The entry stored for ``key`` in the memo, else on disk.

        A found entry is tallied as a hit (a disk hit is also copied
        into the memo) and returned with no digest. On a miss of every
        tier the entry is ``None`` and the digest is the one a computed
        result is to be written to disk under (``None`` without a disk).
        """
        config, streams, normalized = key
        if self._memo is not None:
            cached = self._memo.get(key)
            if cached is not None:
                self._count_hit(rec, "memo", len(streams))
                return cached, None
        if self._disk is None:
            return None, None
        digest = request_digest(config, streams, normalized)
        from_disk = self._disk.get_ref(digest)
        if from_disk is None:
            return None, digest
        self._count_hit(rec, "disk", len(streams))
        if self._memo is not None:
            self._memo.put(key, from_disk)
        return from_disk, None

    def _count_hit(self, rec: Recorder, source: str, streams: int) -> None:
        """Tally one hit from ``source`` (``"memo"`` or ``"disk"``)."""
        disk = source == "disk"
        self.stats.hits += 1
        if disk:
            self.stats.disk_hits += 1
        if rec.enabled:
            rec.incr("sweep.cache.hits_count")
            if disk:
                rec.incr("sweep.cache.disk_hits_count")
            rec.event("sweep.cache_hit", source=source, streams=streams)

    @staticmethod
    def _deliver(
        stored: CacheValue,
        streams: tuple[StreamSpec, ...],
        state: DirectoryState,
    ) -> BandwidthResult:
        """Copy a stored result and rebase its directory_after on ``state``.

        The stored result was computed against the *normalized* directory;
        the caller's follow-up state must include everything the caller
        already had warm plus this evaluation's far traversals.

        ``stored`` may be a ``(columns, row)`` reference into a memoized
        batch; the row's view is materialized (and cached on the batch)
        first. Either way the copy is lazy: it shares the immutable
        streams, and its counters are materialized only if the caller
        reads them — repeated memo hits on a large sweep pay one
        directory rebase and nothing else, and annotating a delivered
        result's counters can never corrupt the stored entry.
        """
        if type(stored) is tuple:
            columns, row = stored
            stored = columns.view(row)
        result = stored.copy()
        result.directory_after = _rebased(state, streams)
        return result


def _rebased(
    state: DirectoryState, streams: tuple[StreamSpec, ...]
) -> DirectoryState:
    """``state`` plus the far traversals of ``streams``: the
    ``directory_after`` of evaluating ``streams`` against ``state``."""
    after = state
    for spec in streams:
        if spec.far:
            after = after.touch(spec.issuing_socket, spec.target_socket)
    return after


_DEFAULT_SERVICE: EvaluationService | None = None
_DEFAULT_SERVICE_LOCK = threading.Lock()


def default_service() -> EvaluationService:
    """The process-wide shared service (created on first use).

    Creation is guarded by a lock: without it, two threads hitting the
    first call concurrently could each construct a service and split the
    memo cache between them (the classic check-then-set race). The
    fast path re-checks under the lock and stays lock-free afterwards.
    """
    global _DEFAULT_SERVICE
    if _DEFAULT_SERVICE is None:
        with _DEFAULT_SERVICE_LOCK:
            if _DEFAULT_SERVICE is None:
                _DEFAULT_SERVICE = EvaluationService()
    return _DEFAULT_SERVICE


def set_default_service(service: EvaluationService | None) -> EvaluationService | None:
    """Replace the process-wide service; returns the previous one.

    Pass ``None`` to reset (a fresh default is created on next use).
    Used by the CLI to install a disk-backed service and by tests to
    isolate cache statistics.
    """
    global _DEFAULT_SERVICE
    previous = _DEFAULT_SERVICE
    _DEFAULT_SERVICE = service
    return previous


def stream_gbps(
    config: MachineConfig,
    streams: "list[StreamSpec] | tuple[StreamSpec, ...]",
    directory: DirectoryState | None = None,
) -> float:
    """Total GB/s of ``streams`` on ``config``, through :func:`default_service`.

    The service is looked up per call, so a service installed with
    :func:`set_default_service` sees every request made after it.
    """
    return default_service().evaluate(config, streams, directory).total_gbps
