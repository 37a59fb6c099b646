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

One cache story for every grid: :meth:`EvaluationService.evaluate_grid_columns`
and the cluster coordinator (:mod:`repro.sweep.cluster.coordinator`)
both resolve a grid through :meth:`EvaluationService._lookup_grid`,
tally its hits as they walk the grid in order
(:meth:`GridLookup.append_hit`), and hand the batch they computed — in
process or on workers — to one helper (:meth:`GridLookup.store`), so
either backend leaves the same cache behind and reports the same
hit/miss tallies.
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
        Keep results in memory (default). Disabled for measuring the
        uncached baseline in benchmarks, and in cluster workers, whose
        coordinator has already answered every point its caches hold.
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

        The caches are searched first without tallying anything
        (:meth:`_lookup_grid`); hits are then tallied, and computed rows
        stored, only as the output loop reaches them, so a failing point
        stops both exactly where the per-point loop stops. A point
        repeating an earlier missed point of the same call takes the
        earlier row and counts a memo hit (with its ``sweep.cache_hit``
        event) instead of a miss, and replays no evaluation probes. A
        service built with ``memoize=False`` counts every repeat as a
        miss.

        No per-point result object is materialized anywhere on this
        path: cache hits and batch computes alike move between the
        caches and the output as column rows. On a cold grid (every
        point a batch miss) the kernel batch itself is returned, and
        the memo stores one column-wise ``take`` of it, so each row is
        copied once.

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

        reasons = [classify_point(ctx, streams) for streams in normalized_points]
        lookup = self._lookup_grid(config, normalized_points, state)
        batch = [i for i in lookup.misses if reasons[i] is None]
        computed: "ResultColumns | None" = None
        emit = None
        if batch:
            try:
                # Computed against the caller's *full* state: a point can
                # only observe the warmth of its own far-read pairs, which
                # the restricted key state preserves by construction, so
                # the rows (and their ``directory_after``) are exactly
                # what per-point evaluation against ``state`` produces.
                computed, emit = evaluate_points_columns(
                    ctx, [normalized_points[i] for i in batch], state
                )
            except Exception:
                # The batch kernel failed wholesale. The loop below
                # re-runs the misses through the scalar path, which
                # attributes the error to the exact point — and completes
                # the sweep if the failure was batch-only. Nothing was
                # tallied yet, so the scalar calls' own hit/miss
                # accounting stays exact.
                computed = None
                batch = []

        # Points are delivered — and fallback points evaluated — in
        # ``points`` order: float addition is order-sensitive at the last
        # ulp, so recorder counters must accumulate exactly as the
        # per-point path would. The returned batch never shares a view
        # cache with a stored one (``take`` starts a fresh one), so
        # annotating a view of the returned columns can never corrupt a
        # stored entry.
        emitting = rec.enabled
        if emitting:
            from repro.obs import probes
        out = GridRows()
        # Batch rows delivered so far: the misses to tally and store.
        pos = 0
        try:
            if batch and len(batch) == len(normalized_points):
                # The cold grid: every point is a batch miss, so the
                # kernel batch is the output, rows and order alike.
                if emitting:
                    for pos, key in enumerate(lookup.keys):
                        emit(rec, pos, before=key[2], after=_rebased(key[2], key[1]))
                pos = len(batch)
                return computed
            # A mixed grid: hits, repeats and fallbacks interleave with
            # the batch rows; each source batch is copied from once.
            for i, streams in enumerate(normalized_points):
                reason = reasons[i]
                if emitting and reason is not None:
                    probes.emit_vector_fallback(rec, reason)
                if lookup.append_hit(i, out, state, rec):
                    continue
                if pos < len(batch) and batch[pos] == i:
                    if emitting and emit is not None:
                        # Probes replay against the normalized states the
                        # per-point path evaluates under, not the full
                        # input state the batch ran against.
                        key = lookup.keys[i]
                        emit(rec, pos, before=key[2], after=_rebased(key[2], streams))
                    out.add(computed, pos, computed.directory_after[pos])
                    pos += 1
                    continue
                try:
                    result = self.evaluate(config, streams, state, recorder=rec)
                    out.add_result(result, result.directory_after)
                except Exception as exc:
                    raise fail(i, exc, out.columns()) from exc
        finally:
            if pos:
                self.stats.misses += pos
                if emitting:
                    rec.incr("sweep.cache.misses_count", pos)
                lookup.store(batch[:pos], computed)
        return out.columns()

    def _lookup_grid(
        self,
        config: MachineConfig,
        points: Sequence[tuple[StreamSpec, ...]],
        directory: DirectoryState,
    ) -> GridLookup:
        """What this service's caches hold for ``points``, tallying nothing.

        Each point is keyed exactly as :meth:`evaluate` keys it and
        looked up in the memo, then on disk. On a memoizing service, a
        point missing both whose key an earlier missed point of the grid
        already has is a *repeat* of that point. Both grid paths start
        here: :meth:`evaluate_grid_columns` computes the misses in
        process, the cluster coordinator ships them to workers.
        """
        # Each point is keyed under the directory restricted to *its*
        # observable far-read pairs; points sharing a pair set share the
        # restricted state object.
        restricted: dict[frozenset, DirectoryState] = {}
        lookup = GridLookup(self, directory)
        keys = lookup.keys
        for streams in points:
            pairs = observable_pairs(streams)
            normalized = restricted.get(pairs)
            if normalized is None:
                normalized = directory.restrict(pairs)
                restricted[pairs] = normalized
            keys.append((config, streams, normalized))
        memo, disk = self._memo, self._disk
        # One hash per key: the memo answers each key with its entry or
        # with the slot it reserved, which the grid's store fills.
        held = lookup.held = (
            memo.reserve_many(keys) if memo is not None else [None] * len(keys)
        )
        # Every copy of a key gets the key's one slot: repeats are found
        # by its identity.
        first: dict[int, int] = {}
        digest = None
        for i, key in enumerate(keys):
            slot = held[i]
            if slot:  # an entry; an empty slot (and no memo) is falsy
                lookup.found[i] = (slot, "memo")
                continue
            if disk is not None:
                entry, digest = self._find_on_disk(key)
                if entry is not None:
                    lookup.found[i] = (entry, "disk")
                    continue
            if slot is not None:
                earlier = first.setdefault(id(slot), i)
                if earlier != i:
                    lookup.repeats[i] = earlier
                    continue
            lookup.misses.append(i)
            if digest is not None:
                lookup.digests[i] = digest
        return lookup

    def _find(
        self, key: RequestKey
    ) -> tuple[CacheValue | None, str | None, str | None]:
        """``(entry, source, digest)`` for ``key``, tallying nothing.

        ``source`` names the tier that holds the entry (``"memo"`` or
        ``"disk"``). On a miss of every tier the entry is ``None`` and the
        digest is the one a computed result is to be written to disk
        under (``None`` without a disk).
        """
        if self._memo is not None:
            cached = self._memo.get(key)
            if cached is not None:
                return cached, "memo", None
        entry, digest = self._find_on_disk(key)
        return entry, None if entry is None else "disk", digest

    def _find_on_disk(
        self, key: RequestKey
    ) -> tuple[CacheValue | None, str | None]:
        """``(entry, digest)`` for ``key`` on disk, tallying nothing.

        The digest is the one a computed result is to be written under
        when the disk misses; both are ``None`` without a disk.
        """
        if self._disk is None:
            return None, None
        digest = request_digest(*key)
        from_disk = self._disk.get_ref(digest)
        if from_disk is None:
            return None, digest
        return from_disk, None

    def _take(
        self, key: RequestKey, entry: CacheValue, source: str, rec: Recorder
    ) -> CacheValue:
        """Tally the hit :meth:`_find` found; returns the entry to deliver.

        A disk hit is copied into the memo. If an earlier point already
        put the key there, the per-point path would have met it in the
        memo, so it counts as a memo hit.
        """
        if source == "disk" and self._memo is not None:
            held = self._memo.setdefault(key, entry)
            if held is not entry:
                entry, source = held, "memo"
        self._count_hit(rec, source, len(key[1]))
        return entry

    def _lookup(
        self, key: RequestKey, rec: Recorder
    ) -> tuple[CacheValue | None, str | None]:
        """The entry stored for ``key``, tallied as a hit, else a miss.

        On a miss of every tier the entry is ``None`` and the digest is
        the one a computed result is to be written to disk under
        (``None`` without a disk).
        """
        entry, source, digest = self._find(key)
        if entry is None:
            return None, digest
        return self._take(key, entry, source, rec), None

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
        if not isinstance(stored, BandwidthResult):
            columns, row = stored
            stored = columns.view(row)
        result = stored.copy()
        result.directory_after = _rebased(state, streams)
        return result


class GridLookup:
    """One grid resolved against a service's caches, nothing tallied yet.

    Built by :meth:`EvaluationService._lookup_grid`. Point ``i`` has the
    request key ``keys[i]`` and is either found (``found[i]`` holds the
    entry and the tier, ``"memo"`` or ``"disk"``), a repeat of the
    earlier missed point ``repeats[i]``, or listed in ``misses`` (grid
    order) with the disk digest ``digests[i]`` when the service has a
    disk. The grid's consumer — the service's own grid loop or the
    cluster coordinator — walks the points in grid order, tallying each
    hit with :meth:`append_hit`, and hands the computed misses to
    :meth:`store`; a walk that stops early therefore tallies and stores
    nothing past where it stopped.
    """

    def __init__(self, service: EvaluationService, directory: DirectoryState) -> None:
        self.service = service
        #: The full input state the grid's misses are computed against.
        self.directory = directory
        self.keys: list[RequestKey] = []
        #: What the memo held for ``keys[i]``: its entry or its empty
        #: :class:`~repro.sweep.cache.Slot` (``None`` without a memo).
        self.held: list[CacheValue | None] = []
        self.found: dict[int, tuple[CacheValue, str]] = {}
        self.repeats: dict[int, int] = {}
        self.misses: list[int] = []
        self.digests: dict[int, str] = {}

    def append_hit(
        self,
        index: int,
        out: "GridRows",
        state: DirectoryState,
        rec: Recorder,
    ) -> bool:
        """Tally point ``index``'s hit and add its row to ``out``.

        ``out`` holds the rows of every earlier point in grid order. A
        found row is rebased onto ``state`` exactly as
        :meth:`EvaluationService._deliver` rebases it; a repeat takes
        the earlier point's row and counts a memo hit. Returns ``False``
        (and does nothing) for a miss.
        """
        found = self.found.get(index)
        if found is not None:
            key = self.keys[index]
            entry = self.service._take(key, found[0], found[1], rec)
            after = _rebased(state, key[1])
            if isinstance(entry, BandwidthResult):
                out.add_result(entry, after)
            else:
                out.add(entry[0], entry[1], after)
            return True
        earlier = self.repeats.get(index)
        if earlier is None:
            return False
        self.service._count_hit(rec, "memo", len(self.keys[index][1]))
        out.repeat(earlier)
        return True

    def store(
        self,
        indices: Sequence[int],
        computed: "ResultColumns",
        rows: Sequence[int] | None = None,
    ) -> None:
        """Store the computed rows of the missed points ``indices``.

        Row ``rows[k]`` of ``computed`` (row ``k`` when ``rows`` is
        ``None``) is point ``indices[k]``'s, computed against the full
        state :attr:`directory`. The stored entries are what the
        per-point path stores: one :meth:`ResultColumns.take` of those
        rows, with each key's ``directory_after`` rebased onto its
        normalized state, memoized as ``(stored, row)`` into the slot
        each key reserved at lookup (no key is hashed again) and written
        to disk as one block.
        """
        memo, disk = self.service._memo, self.service._disk
        if memo is None and disk is None:
            return
        keys = [self.keys[i] for i in indices]
        rows = range(len(keys)) if rows is None else rows
        # A key whose normalized state *is* the full state (every key,
        # under a cold input state) already has its rebase in the
        # computed row.
        full, afters = self.directory, computed.directory_after
        stored = computed.take(
            rows,
            directory_after=[
                afters[row] if key[2] is full else _rebased(key[2], key[1])
                for row, key in zip(rows, keys)
            ],
        )
        if memo is not None:
            held = self.held
            memo.fill_many(
                (held[i], (stored, row)) for row, i in enumerate(indices)
            )
        if disk is not None:
            disk.put_columns([self.digests[i] for i in indices], stored)


class GridRows:
    """A grid's output rows in grid order, copied column-wise at the end.

    Each row is a reference — row ``row`` of a source batch, with its
    own ``directory_after`` — until :meth:`columns` builds the batch
    with one :meth:`ResultColumns.take` per source batch (a source used
    whole and in order is not copied at all), one concatenation, and
    one ``take`` into grid order. The result equals a loop of
    :meth:`ResultColumns.append_from` over the rows.
    """

    def __init__(self) -> None:
        #: id(source) -> (source, the rows taken from it, in first-use order).
        self._sources: dict[int, tuple["ResultColumns", list[int]]] = {}
        #: Per output row: (id of its source, its position among that
        #: source's taken rows).
        self._where: list[tuple[int, int]] = []
        self._afters: list[DirectoryState | None] = []
        #: Rows added from result objects.
        self._results: "ResultColumns | None" = None

    def add(
        self, source: "ResultColumns", row: int, after: DirectoryState | None
    ) -> None:
        """Add row ``row`` of ``source`` with ``after`` as its
        ``directory_after``. ``source`` must not change until
        :meth:`columns`."""
        taken = self._sources.get(id(source))
        if taken is None:
            taken = self._sources[id(source)] = (source, [])
        self._where.append((id(source), len(taken[1])))
        taken[1].append(row)
        self._afters.append(after)

    def add_result(
        self, result: BandwidthResult, after: DirectoryState | None
    ) -> None:
        """Add a result object's row with ``after`` as its ``directory_after``."""
        if self._results is None:
            from repro.memsim.kernels import ResultColumns

            self._results = ResultColumns()
        self._results.append_result(result)
        self.add(self._results, len(self._results) - 1, after)

    def repeat(self, earlier: int) -> None:
        """Add output row ``earlier`` again."""
        self._where.append(self._where[earlier])
        self._afters.append(self._afters[earlier])

    def columns(self) -> "ResultColumns":
        """The rows added so far as one new batch (no shared view cache)."""
        from repro.memsim.kernels import ResultColumns

        if len(self._sources) == 1:
            ((source, rows),) = self._sources.values()
            return source.take(
                [rows[pos] for _, pos in self._where], directory_after=self._afters
            )
        parts = ResultColumns()
        base: dict[int, int] = {}
        for key, (source, rows) in self._sources.items():
            base[key] = len(parts)
            whole = len(rows) == len(source) and rows == list(range(len(rows)))
            parts.extend(source if whole else source.take(rows))
        return parts.take(
            [base[key] + pos for key, pos in self._where],
            directory_after=self._afters,
        )


def _rebased(
    state: DirectoryState, streams: tuple[StreamSpec, ...]
) -> DirectoryState:
    """``state`` plus the far traversals of ``streams``: the
    ``directory_after`` of evaluating ``streams`` against ``state``."""
    after = state
    for spec in streams:
        if spec.issuing_socket != spec.target_socket:
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
    ``repro bench`` and tests use it to count one run's cache
    statistics alone.
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
