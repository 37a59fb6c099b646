"""Cluster sweep coordinator: resolves, shards, ships, steals, requeues, merges.

The coordinator owns the whole sweep, and it is the cluster's only
cache. Before it shards anything it resolves every grid point through
the parent :class:`~repro.sweep.service.EvaluationService`
(:meth:`~repro.sweep.service.EvaluationService._lookup_grid`): memo
hits, disk hits and — on a memoizing service — repeats of an earlier
missed point never leave this process. Only the misses are sharded into
chunks **by content hash** (a point's chunk depends on its request
digest alone), shipped one chunk at a time to each joined worker, and
assembled **by global index in grid order**, which is what makes
``backend="cluster"`` bit-identical to in-process evaluation no matter
how chunks interleave, steal, or requeue. The returned rows are stored
back through the same helper the in-process grid path stores its batch
with, so a cluster-written cache is the cache the vector path writes.
A grid answered entirely from the parent's caches ships nothing.

Straggler and fault handling:

* **Work-stealing** — a worker with nothing left to do and nothing
  pending triggers a steal against the victim with the most unfilled
  outstanding points; the victim's *reader* answers immediately (its
  compute may be busy), relinquishing about half of its queued points,
  which the coordinator re-ships to the idle worker as a fresh chunk.
  Revoked points move, they are never duplicated — per-point cache
  accounting stays exact.
* **Heartbeats** — any frame refreshes a worker's deadline; a worker
  silent past the timeout (or whose connection drops) is declared dead,
  its link is closed so late frames can never double-count, and its
  unfilled outstanding points are requeued for the survivors.

Counters and cache statistics fold into the parent: the parent-side
hits are tallied in grid order as the rows are assembled (stopping at a
failing point, as the in-process loop stops), worker snapshots are
merged **in grid order** at the end (:func:`repro.obs.merge_snapshot`),
and the coordinator emits the ``cluster.*`` counters for its own
mechanics. A sweep that succeeds adds the workers' stats deltas (their
misses). A failing point does not end the sweep at once: the sweep runs
on until every missed point before the *first* failing index is merged,
recomputing any its failing item never reached, and then tallies one
miss per missed point it reached plus the failing point's own, exactly
the count the in-process loop stops at — so a failing grid's
``CacheStats`` do not depend on which frames were in flight.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Awaitable, Callable, Sequence

from repro import errors
from repro.errors import GridPointError, SweepError
from repro.memsim.config import DirectoryState, MachineConfig
from repro.memsim.kernels import ResultColumns
from repro.obs import CountersRecorder, Recorder, merge_snapshot
from repro.sweep.cache import encode, request_digest
from repro.sweep.cluster import protocol
from repro.sweep.cluster.config import CHUNKS_PER_WORKER, ClusterOptions
from repro.sweep.service import EvaluationService
from repro.workloads.grids import SweepPoint

__all__ = ["Coordinator"]


def _rebuild_error(type_name: str, message: str) -> Exception:
    """A worker's failing exception, rebuilt from its class name and message.

    The named :mod:`repro.errors` class when it can be built from the
    message alone, else :class:`SweepError` carrying the message — so
    ``str()`` of the surrounding :class:`GridPointError` is the same on
    every backend.
    """
    kind = getattr(errors, type_name, None)
    if isinstance(kind, type) and issubclass(kind, errors.ReproError):
        try:
            return kind(message)
        except TypeError:  # a constructor that needs more than a message
            return SweepError(message)
    return SweepError(message)


def _checked_snapshot(frame: dict) -> dict | None:
    """The frame's counters ``snapshot``, validated by merging it once."""
    snapshot = frame.get("snapshot")
    if snapshot is None:
        return None
    checked = CountersRecorder()
    try:
        checked.merge_snapshot(snapshot)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise SweepError(f"cluster frame has a malformed 'snapshot': {exc}") from exc
    return checked.snapshot()


class _Link:
    """One connected worker."""

    def __init__(
        self,
        link_id: int,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        now: float,
    ) -> None:
        self.id = link_id
        self.reader = reader
        self.writer = writer
        #: chunk id -> set of global indices not yet answered.
        self.outstanding: dict[int, set[int]] = {}
        self.last_seen = now
        self.steal_pending = False
        self.alive = True
        self.task: asyncio.Task | None = None

    def unfilled(self) -> int:
        return sum(len(indices) for indices in self.outstanding.values())


class Coordinator:
    """Drives one grid sweep across connected workers.

    Use :meth:`start` (optionally :meth:`dial` for remote peers), then
    :meth:`finish` — or spawn local workers around it via
    :func:`repro.sweep.cluster.backend.run_grid_columns`. ``clock`` and
    ``sleep`` are injectable so the fault tests advance heartbeat
    timeouts on a fake clock in zero wall time.
    """

    def __init__(
        self,
        grid_name: str,
        points: Sequence[SweepPoint],
        *,
        config: MachineConfig,
        directory: DirectoryState,
        service: EvaluationService,
        recorder: Recorder,
        options: ClusterOptions | None = None,
        workers_hint: int | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
    ) -> None:
        self.options = options if options is not None else ClusterOptions()
        self._grid_name = grid_name
        self._points = list(points)
        self._config = config
        self._directory = directory
        self._service = service
        self._recorder = recorder
        self._observing = recorder.enabled
        self._clock = clock
        self._sleep = sleep
        self._lookup = service._lookup_grid(
            config, [tuple(point.streams) for point in self._points], directory
        )
        #: Grid indices of the points the parent's caches miss: the only
        #: points shipped to workers.
        self.misses = self._lookup.misses
        self._shippable = frozenset(self.misses)
        workers = workers_hint if workers_hint is not None else self.options.workers
        self._pending: deque[list[int]] = deque(self._shard(max(1, workers)))
        self._links: dict[int, _Link] = {}
        self._waiting: deque[_Link] = deque()
        self._filled: dict[int, tuple[ResultColumns, int]] = {}
        self._snapshots: list[tuple[int, dict]] = []
        #: Summed worker stats deltas: hits, misses, disk hits.
        self._worker_stats = [0, 0, 0]
        self._failure: tuple[int, Exception, str | None, str | None] | None = None
        self._fatal: SweepError | None = None
        self._finished = asyncio.Event()
        self._next_chunk = 0
        self._next_link = 0
        self._server: asyncio.AbstractServer | None = None
        self._monitor_task: asyncio.Task | None = None
        self._started_at = 0.0
        self._joined = 0

    # ------------------------------------------------------------------
    # sharding
    # ------------------------------------------------------------------

    def _shard(self, workers: int) -> list[list[int]]:
        """Content-hash shards of the misses: a pure function of their content.

        A missed point's chunk is its request digest (the one the disk
        lookup already computed, when the parent has a disk) modulo the
        chunk count, so it depends on the point's content and the number
        of misses, not on where in the grid the point sits.
        """
        n_chunks = max(1, min(len(self.misses), workers * CHUNKS_PER_WORKER))
        shards: list[list[int]] = [[] for _ in range(n_chunks)]
        keys, digests = self._lookup.keys, self._lookup.digests
        for index in self.misses:
            digest = digests.get(index)
            if digest is None:
                config, streams, normalized = keys[index]
                digest = request_digest(config, streams, normalized)
            shards[int(digest[:8], 16) % n_chunks].append(index)
        return [shard for shard in shards if shard]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(
        self, host: str = "127.0.0.1", port: int = 0, sock=None
    ) -> tuple[str, int]:
        """Begin accepting workers; returns the bound address."""
        if sock is not None:
            self._server = await asyncio.start_server(
                self._on_connection, sock=sock, limit=protocol.MAX_FRAME_BYTES
            )
        else:
            self._server = await asyncio.start_server(
                self._on_connection, host, port, limit=protocol.MAX_FRAME_BYTES
            )
        self._started_at = self._clock()
        self._monitor_task = asyncio.ensure_future(self._monitor())
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def dial(self, host: str, port: int) -> None:
        """Connect out to a standing ``repro worker`` peer."""
        reader, writer = await asyncio.open_connection(
            host, port, limit=protocol.MAX_FRAME_BYTES
        )
        self._attach(reader, writer)

    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._attach(reader, writer)

    def _attach(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._next_link += 1
        link = _Link(self._next_link, reader, writer, self._clock())
        self._links[link.id] = link
        link.task = asyncio.ensure_future(self._serve_link(link))

    async def finish(self) -> tuple[list[str], ResultColumns]:
        """Wait for the sweep, tear down, and assemble in grid order."""
        if not self.misses:
            self._finished.set()
        await self._finished.wait()
        if self._monitor_task is not None:
            self._monitor_task.cancel()
        for link in list(self._links.values()):
            link.alive = False
            try:
                await protocol.send_frame(link.writer, {"kind": "bye"})
            except (ConnectionError, OSError):  # simlint: ignore[silent-except] -- a worker that died after finishing cannot unfinish the sweep
                pass
            link.writer.close()
            if link.task is not None:
                link.task.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        stats = self._service.stats
        if self._fatal is not None or self._failure is None:
            hits, misses, disk_hits = self._worker_stats
            stats.hits += hits
            stats.misses += misses
            stats.disk_hits += disk_hits
        if self._fatal is not None:
            raise self._fatal  # simlint: ignore[foreign-raise] -- _fatal is only ever a SweepError
        # Counters merge in grid order — deterministic for a given
        # partitioning.
        if self._observing:
            for _, snapshot in sorted(self._snapshots, key=lambda item: item[0]):
                merge_snapshot(self._recorder, snapshot)
        stop = self._failure[0] if self._failure is not None else len(self._points)
        out, computed = self._assemble(stop)
        if self._failure is not None:
            # The failing point counted a miss before it raised.
            stats.misses += computed + 1
            index, original, label, grid = self._failure
            raise GridPointError(
                index, original, label=label, grid=grid, partial=out
            ) from original
        if self._observing:
            self._recorder.incr("sweep.points_count", len(self._points))
        return [point.label for point in self._points], out

    def _assemble(self, stop: int) -> tuple[ResultColumns, int]:
        """The grid prefix before ``stop``, and how many of its rows were computed.

        Walks the grid in order as the in-process grid loop does: the
        parent's hits are tallied as they are reached, and the computed
        rows reached are stored back into the parent's caches. Every
        missed point before ``stop`` has been answered by then.
        """
        out = ResultColumns()
        stored: list[int] = []
        for index in range(stop):
            if self._lookup.append_hit(index, out, self._directory, self._recorder):
                continue
            ref = self._filled.get(index)
            if ref is None:
                break
            out.append_from(ref[0], ref[1])
            stored.append(index)
        self._lookup.store(stored, (self._filled[index] for index in stored))
        return out, len(stored)

    # ------------------------------------------------------------------
    # per-link protocol
    # ------------------------------------------------------------------

    async def _serve_link(self, link: _Link) -> None:
        try:
            join = await protocol.read_frame(link.reader)
            if join is None or join.get("kind") != "join":
                raise SweepError("cluster worker did not join")
            if join.get("protocol") != protocol.CLUSTER_PROTOCOL:
                raise SweepError(
                    f"cluster worker speaks {join.get('protocol')!r}, "
                    f"expected {protocol.CLUSTER_PROTOCOL!r}"
                )
            link.last_seen = self._clock()
            self._joined += 1
            if self._observing:
                self._recorder.incr("cluster.workers_count")
            await protocol.send_frame(link.writer, {
                "kind": "hello",
                "protocol": protocol.CLUSTER_PROTOCOL,
                "config": encode(self._config),
                "directory": sorted(self._directory.warm_pairs),
                "grid": self._grid_name,
                "observing": self._observing,
                "points_per_item": self.options.points_per_item,
                "heartbeat_seconds": self.options.heartbeat_seconds,
            })
            await self._dispatch(link)
            while link.alive:
                frame = await protocol.read_frame(link.reader)
                if frame is None:
                    break
                link.last_seen = self._clock()
                await self._handle(link, frame)
        except (SweepError, ConnectionError, asyncio.IncompleteReadError):  # simlint: ignore[silent-except] -- a broken link is handled below as a dead worker, not an error
            pass
        except asyncio.CancelledError:
            return
        if link.alive and not self._finished.is_set():
            self._on_dead(link)

    async def _handle(self, link: _Link, frame: dict) -> None:
        kind = frame["kind"]
        if kind == "heartbeat":
            if self._observing:
                self._recorder.incr("cluster.heartbeats_count")
        elif kind == "result":
            self._merge_result(link, frame)
            if not link.outstanding:
                await self._dispatch(link)
        elif kind == "stolen":
            await self._on_stolen(link, frame)
        elif kind == "failed":
            self._on_failed(link, frame)
            if not link.outstanding:
                await self._dispatch(link)
            await self._feed_waiting()
        else:
            raise SweepError(f"coordinator got unknown frame kind {kind!r}")

    def _indices(self, frame: dict, name: str) -> list[int]:
        """Global point indices from ``frame[name]``, each a shipped miss."""
        indices = list(protocol.field(frame, name, tuple[int, ...]))
        if not self._shippable.issuperset(indices):
            raise SweepError(f"cluster frame {name!r} names an unknown point")
        return indices

    def _merge_result(self, link: _Link, frame: dict) -> None:
        indices = self._indices(frame, "indices")
        columns = protocol.field(frame, "columns", ResultColumns)
        if len(indices) != len(columns):
            raise SweepError("cluster result rows do not match its indices")
        chunk = protocol.field(frame, "chunk", int)
        hits, misses, disk_hits = protocol.field(frame, "stats", tuple[int, int, int])
        wall = protocol.field(frame, "wall", float)
        snapshot = _checked_snapshot(frame)
        self._fill(link, chunk, indices, columns)
        if snapshot is not None and indices:
            self._snapshots.append((min(indices), snapshot))
        self._worker_stats[0] += hits
        self._worker_stats[1] += misses
        self._worker_stats[2] += disk_hits
        if self._observing:
            self._recorder.observe("cluster.worker.wall_seconds", wall)
        self._settle()

    def _fill(
        self, link: _Link, chunk: int, indices: list[int], columns: ResultColumns
    ) -> None:
        """Record the rows of an answered item; the item leaves the link's work."""
        for row, index in enumerate(indices[: len(columns)]):
            # First result wins: a requeue after a late-but-delivered
            # result must not overwrite bit-identical rows (they are
            # identical anyway; first-wins just makes that explicit).
            self._filled.setdefault(index, (columns, row))
        remaining = link.outstanding.get(chunk)
        if remaining is not None:
            remaining.difference_update(indices)
            if not remaining:
                del link.outstanding[chunk]

    def _on_failed(self, link: _Link, frame: dict) -> None:
        indices = self._indices(frame, "indices")
        partial = protocol.field(frame, "partial", ResultColumns)
        index = protocol.field(frame, "index", int)
        if len(partial) >= len(indices) or indices[len(partial)] != index:
            raise SweepError("cluster failed frame does not match its item")
        original = _rebuild_error(
            protocol.field(frame, "error_type", str),
            protocol.field(frame, "error", str),
        )
        label = protocol.field(frame, "label", str | None)
        grid = protocol.field(frame, "grid", str | None)
        self._fill(link, protocol.field(frame, "chunk", int), indices, partial)
        if self._failure is None or index < self._failure[0]:
            self._failure = (index, original, label, grid)
        # The item stopped at the failing point; the points it never
        # reached are computed elsewhere when they precede the failure.
        skipped = [
            i
            for i in indices[len(partial) + 1 :]
            if i < self._failure[0] and i not in self._filled
        ]
        if skipped:
            self._pending.append(skipped)
        self._settle()

    def _settle(self) -> None:
        """Finish once every missed point the assembly will reach is answered."""
        if self._failure is None:
            done = len(self._filled) == len(self.misses)
        else:
            stop = self._failure[0]
            done = all(i in self._filled for i in self.misses if i < stop)
        if done:
            self._finished.set()

    # ------------------------------------------------------------------
    # dispatch, stealing, requeue
    # ------------------------------------------------------------------

    async def _ship(self, link: _Link, indices: list[int]) -> None:
        self._next_chunk += 1
        chunk = self._next_chunk
        link.outstanding[chunk] = set(indices)
        if self._observing:
            self._recorder.incr("cluster.chunks.shipped_count")
        await protocol.send_frame(link.writer, {
            "kind": "chunk",
            "chunk": chunk,
            "indices": indices,
            "labels": [self._points[i].label for i in indices],
            "streams": [
                [encode(spec) for spec in self._points[i].streams] for i in indices
            ],
        })

    async def _dispatch(self, link: _Link) -> None:
        """Give an out-of-work worker its next chunk, or arrange a steal.

        After a failure only points before the first failing index are
        still worth computing, and nothing is stolen.
        """
        if self._finished.is_set():
            return
        chunk = self._next_pending()
        if chunk is not None:
            await self._ship(link, chunk)
            return
        if self._failure is not None:
            self._waiting.append(link)
            return
        victim = self._steal_victim()
        if victim is not None:
            victim.steal_pending = True
            self._waiting.append(link)
            await protocol.send_frame(
                victim.writer, {"kind": "steal", "req": link.id}
            )
            return
        self._waiting.append(link)

    def _next_pending(self) -> list[int] | None:
        """The next queued chunk; after a failure, only its points before
        the first failing index (a chunk left empty is dropped)."""
        while self._pending:
            chunk = self._pending.popleft()
            if self._failure is not None:
                chunk = [i for i in chunk if i < self._failure[0]]
            if chunk:
                return chunk
        return None

    def _steal_victim(self) -> _Link | None:
        """The live worker with the most unfilled points worth splitting."""
        best: _Link | None = None
        for link in self._links.values():
            if not link.alive or link.steal_pending:
                continue
            # A victim must hold more than one in-flight item's worth —
            # the executing item cannot be revoked, so anything smaller
            # would answer with an empty steal.
            if link.unfilled() <= self.options.points_per_item:
                continue
            if best is None or link.unfilled() > best.unfilled():
                best = link
        return best

    async def _on_stolen(self, victim: _Link, frame: dict) -> None:
        indices = self._indices(frame, "indices")
        victim.steal_pending = False
        stolen = [i for i in indices if i not in self._filled]
        for remaining in victim.outstanding.values():
            remaining.difference_update(indices)
        victim.outstanding = {
            chunk: remaining
            for chunk, remaining in victim.outstanding.items()
            if remaining
        }
        if stolen:
            if self._observing:
                self._recorder.incr("cluster.chunks.stolen_count")
            thief = self._next_waiting()
            if thief is not None:
                await self._ship(thief, stolen)
            else:
                self._pending.append(stolen)
        elif self._waiting:
            # The victim drained first; retry dispatch for one waiter
            # (it may find another victim, or genuinely go idle).
            thief = self._next_waiting()
            if thief is not None:
                await self._dispatch(thief)

    def _next_waiting(self) -> _Link | None:
        while self._waiting:
            link = self._waiting.popleft()
            if link.alive and not link.outstanding:
                return link
        return None

    # ------------------------------------------------------------------
    # death and requeue
    # ------------------------------------------------------------------

    def _on_dead(self, link: _Link) -> None:
        """Close a dead worker's link and requeue its unfilled points."""
        if not link.alive:
            return
        link.alive = False
        self._links.pop(link.id, None)
        link.writer.close()
        if link.task is not None and link.task is not asyncio.current_task():
            link.task.cancel()
        requeued = [
            [index for index in sorted(indices) if index not in self._filled]
            for indices in link.outstanding.values()
        ]
        requeued = [chunk for chunk in requeued if chunk]
        link.outstanding = {}
        if requeued:
            self._pending.extend(requeued)
            if self._observing:
                self._recorder.incr(
                    "cluster.chunks.requeued_count", len(requeued)
                )
        if not self._links and not self._finished.is_set():
            self._fatal = SweepError(
                f"sweep {self._grid_name!r} failed: every cluster worker died"
            )
            self._finished.set()
            return
        if self._pending:
            asyncio.ensure_future(self._feed_waiting())

    async def _feed_waiting(self) -> None:
        while not self._finished.is_set():
            chunk = self._next_pending()
            if chunk is None:
                return
            link = self._next_waiting()
            if link is None:
                self._pending.appendleft(chunk)
                return
            try:
                await self._ship(link, chunk)
            except (ConnectionError, OSError):
                # _ship registered the chunk in link.outstanding before
                # writing, so declaring the link dead requeues it.
                self._on_dead(link)

    async def _monitor(self) -> None:
        """Declare silent workers dead once the heartbeat timeout lapses."""
        timeout = self.options.heartbeat_timeout_seconds
        interval = max(timeout / 4.0, self.options.heartbeat_seconds / 2.0)
        while not self._finished.is_set():
            await self._sleep(interval)
            now = self._clock()
            if (
                not self._links
                and self._joined == 0
                and now - self._started_at > self.options.join_timeout_seconds
            ):
                self._fatal = SweepError(
                    f"sweep {self._grid_name!r} failed: no cluster worker "
                    f"joined within {self.options.join_timeout_seconds:.0f}s"
                )
                self._finished.set()
                return
            for link in list(self._links.values()):
                if now - link.last_seen > timeout:
                    self._on_dead(link)
