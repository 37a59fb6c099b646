"""Cluster sweep coordinator: shards, ships, steals, requeues, merges.

The coordinator owns the whole sweep: it computes every point's request
digest up front, shards the grid into chunks **by content hash** (so a
given point — and any duplicate of it — deterministically lands in the
same chunk regardless of worker count), ships one chunk at a time to
each joined worker, and assembles the returned column rows **by global
index in grid order**, which is what makes ``backend="cluster"``
bit-identical to in-process evaluation no matter how chunks interleave, steal, or
requeue.

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

The shared cache tier lives here too: a content-addressed map from
request digest to ``(columns, row)``, backed by the parent service's
:class:`~repro.sweep.cache.DiskCache` when one is configured. A point
computed on any worker is published back (``cache_put``) and served to
every other worker (``cache_get``), with the same digests the local
tiers key by — which is why hit/miss accounting carries over unchanged
(see DESIGN.md §7).

Counters and cache statistics fold into the parent: per-item snapshots are buffered and merged **in grid
order** at the end (:func:`repro.obs.merge_snapshot`), stats deltas sum
as they arrive, and the coordinator emits the ``cluster.*`` counters for
its own mechanics.
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
from repro.sweep.cache import DiskCache, columns_to_payload, encode, request_digest
from repro.sweep.cluster import protocol
from repro.sweep.cluster.config import CHUNKS_PER_WORKER, ClusterOptions
from repro.sweep.service import EvaluationService, request_key
from repro.workloads.grids import SweepPoint

__all__ = ["Coordinator", "SharedCache"]


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


class SharedCache:
    """Content-addressed shared tier: request digest -> ``(columns, row)``.

    In-memory for the duration of one sweep, optionally backed by the
    coordinator service's :class:`DiskCache` — the *same* content
    addressing the per-worker tiers use, so a digest means the same
    result everywhere. Disk corruption reads as a miss (``get_ref``'s
    contract) and the recompute's ``put`` rewrites the same
    content-addressed block, healing it.
    """

    def __init__(self, disk: DiskCache | None = None) -> None:
        self._memory: dict[str, tuple[ResultColumns, int]] = {}
        self._disk = disk

    def get(self, digest: str) -> tuple[ResultColumns, int] | None:
        found = self._memory.get(digest)
        if found is not None:
            return found
        if self._disk is not None:
            return self._disk.get_ref(digest)
        return None

    def put(self, digests: Sequence[str], columns: ResultColumns) -> None:
        for row, digest in enumerate(digests):
            self._memory.setdefault(digest, (columns, row))
        if self._disk is not None:
            self._disk.put_columns(list(digests), columns)


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
        self._digests = [
            request_digest(
                config, point.streams, request_key(config, point.streams, directory)[2]
            )
            for point in self._points
        ]
        self.shared = SharedCache(
            service.disk_cache if self.options.shared_cache else None
        )
        workers = workers_hint if workers_hint is not None else self.options.workers
        self._pending: deque[list[int]] = deque(self._shard(max(1, workers)))
        self._links: dict[int, _Link] = {}
        self._waiting: deque[_Link] = deque()
        self._filled: dict[int, tuple[ResultColumns, int]] = {}
        self._snapshots: list[tuple[int, dict]] = []
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
        """Content-hash shards: same point content -> same chunk, always.

        The shard of a point is a pure function of its request digest,
        so duplicate-content points start in one chunk. Within one work
        item the worker's grid call answers each repeat from the earlier
        row as a memo hit, exactly as an in-process grid would.
        """
        n_chunks = max(1, min(len(self._points), workers * CHUNKS_PER_WORKER))
        shards: list[list[int]] = [[] for _ in range(n_chunks)]
        for index, digest in enumerate(self._digests):
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
        if not self._points:
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
        if self._fatal is not None:
            raise self._fatal  # simlint: ignore[foreign-raise] -- _fatal is only ever a SweepError
        # Counters merge in grid order — deterministic for a given
        # partitioning.
        if self._observing:
            for _, snapshot in sorted(self._snapshots, key=lambda item: item[0]):
                merge_snapshot(self._recorder, snapshot)
        if self._failure is not None:
            index, original, label, grid = self._failure
            raise GridPointError(
                index, original, label=label, grid=grid,
                partial=self._prefix(stop=index),
            ) from original
        out = ResultColumns()
        for index in range(len(self._points)):
            columns, row = self._filled[index]
            out.append_from(columns, row)
        return [point.label for point in self._points], out

    def _prefix(self, stop: int) -> ResultColumns:
        """The contiguous completed grid prefix, capped at ``stop``."""
        out = ResultColumns()
        for index in range(stop):
            ref = self._filled.get(index)
            if ref is None:
                break
            out.append_from(ref[0], ref[1])
        return out

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
                "shared_cache": self.options.shared_cache,
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
            self._on_failed(frame)
        elif kind == "cache_get":
            await self._answer_cache_get(link, frame)
        elif kind == "cache_put":
            digests = protocol.digests(frame)
            columns = protocol.field(frame, "columns", ResultColumns)
            if len(digests) != len(columns):
                raise SweepError("cluster cache_put rows do not match its digests")
            self.shared.put(digests, columns)
        else:
            raise SweepError(f"coordinator got unknown frame kind {kind!r}")

    def _indices(self, frame: dict, name: str) -> list[int]:
        """Global point indices from ``frame[name]``, each in range."""
        indices = list(protocol.field(frame, name, tuple[int, ...]))
        if not all(0 <= index < len(self._points) for index in indices):
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
        for row, index in enumerate(indices):
            # First result wins: a requeue after a late-but-delivered
            # result must not overwrite bit-identical rows (they are
            # identical anyway; first-wins just makes that explicit).
            self._filled.setdefault(index, (columns, row))
        remaining = link.outstanding.get(chunk)
        if remaining is not None:
            remaining.difference_update(indices)
            if not remaining:
                del link.outstanding[chunk]
        if snapshot is not None and indices:
            self._snapshots.append((min(indices), snapshot))
        self._service.stats.hits += hits
        self._service.stats.misses += misses
        self._service.stats.disk_hits += disk_hits
        if self._observing:
            self._recorder.observe("cluster.worker.wall_seconds", wall)
        if len(self._filled) == len(self._points):
            self._finished.set()

    def _on_failed(self, frame: dict) -> None:
        partial = protocol.field(frame, "partial", ResultColumns)
        partial_indices = self._indices(frame, "partial_indices")
        if len(partial_indices) != len(partial):
            raise SweepError("cluster failed-frame partial rows do not match")
        index = protocol.field(frame, "index", int)
        if index not in range(len(self._points)):
            raise SweepError("cluster failed frame names an unknown point")
        original = _rebuild_error(
            protocol.field(frame, "error_type", str),
            protocol.field(frame, "error", str),
        )
        label = protocol.field(frame, "label", str | None)
        grid = protocol.field(frame, "grid", str | None)
        for row, filled in enumerate(partial_indices):
            self._filled.setdefault(filled, (partial, row))
        if self._failure is None:
            self._failure = (index, original, label, grid)
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
            "digests": [self._digests[i] for i in indices],
            "labels": [self._points[i].label for i in indices],
            "streams": [
                [encode(spec) for spec in self._points[i].streams] for i in indices
            ],
        })

    async def _dispatch(self, link: _Link) -> None:
        """Give an out-of-work worker its next chunk, or arrange a steal."""
        if self._finished.is_set() or self._failure is not None:
            return
        if self._pending:
            await self._ship(link, self._pending.popleft())
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

    async def _answer_cache_get(self, link: _Link, frame: dict) -> None:
        req = protocol.field(frame, "req", int)
        digests = protocol.digests(frame)
        found: list[str] = []
        rows = ResultColumns()
        for digest in digests:
            ref = self.shared.get(digest)
            if ref is not None:
                found.append(digest)
                rows.append_from(ref[0], ref[1])
        await protocol.send_frame(link.writer, {
            "kind": "cache_found",
            "req": req,
            "digests": found,
            "columns": columns_to_payload(rows),
        })

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
        while self._pending:
            link = self._next_waiting()
            if link is None:
                return
            try:
                await self._ship(link, self._pending.popleft())
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
