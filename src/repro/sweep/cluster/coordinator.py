"""Cluster sweep coordinator: resolves, shards, ships, steals, requeues, merges.

The coordinator owns the whole sweep, and it is the cluster's only
cache. Before it shards anything it resolves every grid point through
the parent :class:`~repro.sweep.service.EvaluationService`
(:meth:`~repro.sweep.service.EvaluationService._lookup_grid`): memo
hits, disk hits and — on a memoizing service — repeats of an earlier
missed point never leave this process. Only the misses are sharded into
chunks **by content hash** (a point's chunk depends on its request
digest alone), shipped one chunk at a time to each attached worker — a
child forked for this sweep, which already holds the grid's points, so
a chunk names grid indices and nothing else — and
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
  silent past the timeout (or whose socket reaches EOF) is declared dead,
  its link is closed so late frames can never double-count, and its
  unfilled outstanding points are requeued for the survivors.
* **Answers are checked against their link** — a ``result``,
  ``failed`` or ``stolen`` frame may name only points outstanding on
  the link it arrives on (for ``result`` and ``failed``, under the
  frame's own chunk). Anything else drops the link and requeues its
  points, so no worker can answer another worker's points.

Counters and cache statistics fold into the parent: the parent-side
hits are tallied in grid order as the rows are assembled, one miss is
counted per computed row merged, worker snapshots are merged **in grid
order** at the end (:func:`repro.obs.merge_snapshot`), and the
coordinator emits the ``cluster.*`` counters for its own mechanics.

A failing point is not assembled at all. The first ``failed`` frame
stops the sweep, nothing the workers returned is merged, and the grid
is re-run in this process through
:meth:`~repro.sweep.service.EvaluationService.evaluate_grid_columns` —
the ``vector`` path — so a failing grid's
:class:`~repro.errors.GridPointError`, partial rows, cache statistics
and ``sweep.*`` counters are the ``vector`` backend's by construction.
A point that fails only on a worker is then simply computed here.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Awaitable, Callable, Sequence

from repro.errors import SweepError
from repro.memsim.config import DirectoryState, MachineConfig
from repro.memsim.kernels import ResultColumns
from repro.obs import CountersRecorder, Recorder, merge_snapshot
from repro.sweep.cache import request_digest
from repro.sweep.cluster import protocol
from repro.sweep.cluster.config import CHUNKS_PER_WORKER, ClusterOptions
from repro.sweep.service import EvaluationService, GridRows
from repro.workloads.grids import SweepPoint

__all__ = ["Coordinator"]


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
    """One attached worker."""

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
    """Drives one grid sweep across attached workers.

    :meth:`attach` each worker's end of its socketpair, then await
    :meth:`finish`; :func:`repro.sweep.cluster.backend.run_grid_columns`
    forks the workers around it. The misses are sharded for
    ``workers_hint`` workers. ``clock`` and ``sleep`` are injectable so
    the fault tests advance heartbeat timeouts on a fake clock in zero
    wall time.
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
        workers_hint: int,
        options: ClusterOptions | None = None,
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
        self._pending: deque[list[int]] = deque(self._shard(max(1, workers_hint)))
        self._links: dict[int, _Link] = {}
        self._waiting: deque[_Link] = deque()
        self._filled: dict[int, tuple[ResultColumns, int]] = {}
        self._snapshots: list[tuple[int, dict]] = []
        #: Set by the first ``failed`` frame: the grid re-runs in process.
        self._failed = False
        self._fatal: SweepError | None = None
        self._finished = asyncio.Event()
        self._next_chunk = 0
        self._next_link = 0
        self._monitor_task: asyncio.Task | None = None

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

    def attach(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one worker's link: dispatch it work, read its frames."""
        self._next_link += 1
        link = _Link(self._next_link, reader, writer, self._clock())
        self._links[link.id] = link
        if self._observing:
            self._recorder.incr("cluster.workers_count")
        link.task = asyncio.ensure_future(self._serve_link(link))

    async def finish(self) -> tuple[list[str], ResultColumns]:
        """Wait for the sweep, tear down, and assemble in grid order."""
        if not self.misses:
            self._finished.set()
        else:
            self._monitor_task = asyncio.ensure_future(self._monitor())
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
        if self._fatal is not None:
            raise self._fatal  # simlint: ignore[foreign-raise] -- _fatal is only ever a SweepError
        labels = [point.label for point in self._points]
        if self._failed:
            # Raises the vector backend's GridPointError — or, when the
            # point failed only on a worker, returns the vector rows.
            out = self._service.evaluate_grid_columns(
                self._config,
                [point.streams for point in self._points],
                self._directory,
                recorder=self._recorder,
                labels=labels,
                grid_name=self._grid_name,
            )
        else:
            # Counters merge in grid order — deterministic for a given
            # partitioning.
            if self._observing:
                for _, snapshot in sorted(self._snapshots, key=lambda item: item[0]):
                    merge_snapshot(self._recorder, snapshot)
            out = self._assemble()
        if self._observing:
            self._recorder.incr("sweep.points_count", len(self._points))
        return labels, out

    def _assemble(self) -> ResultColumns:
        """The grid's rows in grid order, once every missed point is answered.

        Walks the grid as the in-process grid loop does: the parent's
        hits are tallied as they are reached, and the computed rows are
        stored back into the parent's caches, one miss each. The rows
        are copied column-wise once the walk is done: on a grid every
        point of which missed, the received blocks are concatenated once
        and taken into grid order with one ``take``.
        """
        rows = GridRows()
        lookup, filled = self._lookup, self._filled
        for index in range(len(self._points)):
            if not lookup.append_hit(index, rows, self._directory, self._recorder):
                columns, row = filled[index]
                rows.add(columns, row, columns.directory_after[row])
        out = rows.columns()
        # ``out`` is in grid order, so a miss's row is its grid index.
        lookup.store(self.misses, out, self.misses)
        self._service.stats.misses += len(self.misses)
        return out

    # ------------------------------------------------------------------
    # per-link protocol
    # ------------------------------------------------------------------

    async def _serve_link(self, link: _Link) -> None:
        try:
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
            # The grid re-runs in process; nothing is merged.
            self._settle(link, *self._answered(link, frame))
            self._failed = True
            self._finished.set()
        else:
            raise SweepError(f"coordinator got unknown frame kind {kind!r}")

    @staticmethod
    def _indices(frame: dict, outstanding: set[int]) -> list[int]:
        """The frame's distinct ``indices``, all of them in ``outstanding``.

        A worker only ever answers the points the coordinator shipped to
        it, so anything else drops the link.
        """
        indices = list(protocol.field(frame, "indices", tuple[int, ...]))
        if len(set(indices)) != len(indices) or not outstanding.issuperset(indices):
            raise SweepError("cluster frame names a point not outstanding on its link")
        return indices

    def _answered(self, link: _Link, frame: dict) -> tuple[int, list[int]]:
        """The ``chunk`` and ``indices`` a ``result`` or ``failed`` frame answers.

        The indices must be outstanding under the frame's own chunk.
        Nothing is settled yet: see :meth:`_settle`.
        """
        chunk = protocol.field(frame, "chunk", int)
        indices = self._indices(frame, link.outstanding.get(chunk, set()))
        if not indices:
            raise SweepError("cluster frame answers no point")
        return chunk, indices

    @staticmethod
    def _settle(link: _Link, chunk: int, indices: list[int]) -> None:
        """Take answered points off the link's work, once the frame checks out."""
        remaining = link.outstanding[chunk]
        remaining.difference_update(indices)
        if not remaining:
            del link.outstanding[chunk]

    def _merge_result(self, link: _Link, frame: dict) -> None:
        """Merge a ``result`` frame: the rows of the points it names.

        The frame carries no stream specs; the rows take the specs of
        the points shipped under its indices, and its offsets must give
        each point the stream count it was shipped with.
        """
        chunk, indices = self._answered(link, frame)
        points = self._points
        columns = protocol.rows(frame, [points[i].streams for i in indices])
        wall = protocol.field(frame, "wall", float)
        snapshot = _checked_snapshot(frame)
        self._settle(link, chunk, indices)
        filled = self._filled
        for row, index in enumerate(indices):
            filled[index] = (columns, row)
        if snapshot is not None:
            self._snapshots.append((min(indices), snapshot))
        if self._observing:
            self._recorder.observe("cluster.worker.wall_seconds", wall)
        if len(self._filled) == len(self.misses):
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
        })

    async def _dispatch(self, link: _Link) -> None:
        """Give an out-of-work worker its next chunk, or arrange a steal."""
        if self._finished.is_set():
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
        stolen = self._indices(frame, set().union(*victim.outstanding.values()))
        victim.steal_pending = False
        for remaining in victim.outstanding.values():
            remaining.difference_update(stolen)
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
        requeued = [sorted(indices) for indices in link.outstanding.values()]
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
        while self._pending and not self._finished.is_set():
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
            for link in list(self._links.values()):
                if now - link.last_seen > timeout:
                    self._on_dead(link)
