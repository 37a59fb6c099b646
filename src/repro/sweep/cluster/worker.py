"""Cluster sweep worker: evaluates point chunks for a coordinator.

One :class:`ClusterWorker` serves one coordinator session over one
connection. The session is fully coordinator-driven: the worker joins,
receives a ``hello`` pinning the machine config and directory state,
then evaluates ``chunk`` frames through its own
:class:`~repro.sweep.service.EvaluationService`. A worker is plain
compute: the coordinator has already answered every point its own
caches hold, so the worker's service does not memoize, and it has a
disk only when a standing ``repro worker --cache-dir`` gives it one.

Two design points keep the worker responsive and the results exact:

* **Items, not chunks, are the unit of execution.** A received chunk is
  split into small *items* (``points_per_item`` points) on a deque; the
  compute loop takes one item at a time and yields to the event loop
  between items. The reader task therefore stays live while compute is
  busy, which is what lets a ``steal`` frame be answered immediately —
  queued items are popped off the *tail* of the deque and relinquished,
  so no point is ever evaluated twice (revoke-style stealing, no
  speculative duplication).
* **Per-item accounting.** Each item gets a fresh
  :class:`~repro.obs.CountersRecorder` and a cache-stats delta, shipped
  with the item's ``result`` frame; the coordinator merges snapshots in
  grid order. The item's wall time is one ``sweep.batch.wall_seconds``
  observation.

Fault injection (``item_delay_seconds``, ``crash_after_items``,
``heartbeat``) exists for the deterministic fault tests: the delay parks
compute on the *injected* sleep so a fake clock controls when a worker
looks slow, and the crash knob aborts the transport mid-session the way
a killed process would.
"""

from __future__ import annotations

import asyncio
import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Mapping

from repro.errors import GridPointError, SweepError
from repro.memsim.config import DirectoryState, MachineConfig
from repro.memsim.kernels import ResultColumns
from repro.memsim.spec import StreamSpec
from repro.obs import NULL_RECORDER, CountersRecorder, Recorder
from repro.sweep.cache import DiskCache, columns_to_payload
from repro.sweep.cluster import protocol
from repro.sweep.service import EvaluationService

__all__ = ["ClusterWorker", "connect_worker", "serve_worker"]


@dataclass
class _Item:
    """One unit of work: a slice of a chunk, with its global indices."""

    chunk: int
    indices: list[int]
    labels: list[str]
    streams: list[tuple[StreamSpec, ...]]


@dataclass
class _Session:
    """Everything pinned by the coordinator's ``hello`` frame."""

    config: MachineConfig
    directory: DirectoryState
    grid_name: str
    observing: bool
    points_per_item: int
    heartbeat_seconds: float


class ClusterWorker:
    """One coordinator session on one connection.

    Parameters
    ----------
    reader, writer:
        The connection (created with an explicit ``limit``).
    service:
        Evaluation service to route points through; by default a fresh
        non-memoizing one, disk-backed when ``cache_dir`` is given.
    clock, sleep:
        Injectable time source and async sleep — the fault tests drive
        both with a fake clock.
    item_delay_seconds:
        Fault injection: park on ``sleep`` this long before each item.
    crash_after_items:
        Fault injection: abort the transport after completing this many
        items, simulating a worker killed mid-chunk.
    heartbeat:
        Fault injection: disable the heartbeat task so the coordinator's
        timeout (not connection EOF) declares this worker dead.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        service: EvaluationService | None = None,
        cache_dir: str | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
        item_delay_seconds: float = 0.0,
        crash_after_items: int | None = None,
        heartbeat: bool = True,
    ) -> None:
        if service is None:
            disk = DiskCache(cache_dir) if cache_dir is not None else None
            service = EvaluationService(disk_cache=disk, memoize=False)
        self.service = service
        self._reader = reader
        self._writer = writer
        self._clock = clock
        self._sleep = sleep
        self._item_delay = item_delay_seconds
        self._crash_after = crash_after_items
        self._heartbeat_enabled = heartbeat
        self._queue: deque[_Item] = deque()
        self._work_ready = asyncio.Event()
        self._done = asyncio.Event()
        self._session: _Session | None = None
        self._items_completed = 0
        self._crashed = False

    # ------------------------------------------------------------------
    # session
    # ------------------------------------------------------------------

    async def run(self) -> None:
        """Serve one coordinator session to completion."""
        await protocol.send_frame(
            self._writer, {"kind": "join", "protocol": protocol.CLUSTER_PROTOCOL}
        )
        hello = await protocol.read_frame(self._reader)
        if hello is None:
            return
        if hello.get("kind") != "hello" or hello.get("protocol") != protocol.CLUSTER_PROTOCOL:
            raise SweepError(
                f"cluster worker expected a {protocol.CLUSTER_PROTOCOL!r} hello, "
                f"got {hello.get('kind')!r}"
            )
        self._session = _Session(
            config=protocol.field(hello, "config", MachineConfig),
            directory=DirectoryState(
                protocol.field(hello, "directory", frozenset[tuple[int, int]])
            ),
            grid_name=protocol.field(hello, "grid", str),
            observing=protocol.field(hello, "observing", bool),
            points_per_item=protocol.field(hello, "points_per_item", int),
            heartbeat_seconds=protocol.field(hello, "heartbeat_seconds", float),
        )
        if not 0.0 < self._session.heartbeat_seconds < math.inf:
            raise SweepError("cluster hello needs a positive heartbeat_seconds")
        tasks = [asyncio.ensure_future(self._compute_loop())]
        if self._heartbeat_enabled:
            tasks.append(asyncio.ensure_future(self._heartbeat_loop()))
        try:
            await self._read_loop()
        finally:
            for task in tasks:
                task.cancel()
            for task in tasks:
                try:
                    await task
                except (asyncio.CancelledError, ConnectionError):  # simlint: ignore[silent-except] -- reaping cancelled session tasks; the session outcome was already decided
                    pass
            if not self._crashed:
                self._writer.close()
                try:
                    await self._writer.wait_closed()
                except (ConnectionError, OSError):  # simlint: ignore[silent-except] -- already closing; peer reset is the expected outcome
                    pass

    async def _read_loop(self) -> None:
        session = self._session
        assert session is not None
        while True:
            frame = await protocol.read_frame(self._reader)
            if frame is None or frame.get("kind") == "bye":
                self._done.set()
                self._work_ready.set()
                return
            kind = frame["kind"]
            if kind == "chunk":
                self._enqueue_chunk(frame, session)
            elif kind == "steal":
                await self._answer_steal(frame)
            else:
                raise SweepError(f"cluster worker got unknown frame kind {kind!r}")

    def _enqueue_chunk(self, frame: Mapping[str, object], session: _Session) -> None:
        chunk = protocol.field(frame, "chunk", int)
        indices = list(protocol.field(frame, "indices", tuple[int, ...]))
        labels = list(protocol.field(frame, "labels", tuple[str, ...]))
        streams = list(
            protocol.field(frame, "streams", tuple[tuple[StreamSpec, ...], ...])
        )
        if not len(indices) == len(labels) == len(streams):
            raise SweepError("cluster chunk columns differ in length")
        if not all(streams):
            raise SweepError("cluster chunk holds a point with no streams")
        step = max(1, session.points_per_item)
        for lo in range(0, len(indices), step):
            hi = lo + step
            self._queue.append(_Item(
                chunk, indices[lo:hi], labels[lo:hi], streams[lo:hi]
            ))
        self._work_ready.set()

    async def _answer_steal(self, frame: Mapping[str, object]) -> None:
        """Relinquish about half of the queued points, from the tail.

        The currently-executing item is never up for grabs (it is off
        the deque already), so every point is evaluated exactly once —
        by this worker or by the thief, never both.
        """
        queued = sum(len(item.indices) for item in self._queue)
        relinquished: list[int] = []
        # Round up: a single queued item still yields, so a thief never
        # starves just because the victim's queue is short.
        while self._queue and len(relinquished) < (queued + 1) // 2:
            item = self._queue.pop()
            relinquished.extend(item.indices)
        await protocol.send_frame(
            self._writer,
            {"kind": "stolen", "req": frame.get("req"), "indices": relinquished},
        )

    async def _heartbeat_loop(self) -> None:
        session = self._session
        assert session is not None
        while not self._done.is_set():
            await self._sleep(session.heartbeat_seconds)
            await protocol.send_frame(self._writer, {"kind": "heartbeat"})

    # ------------------------------------------------------------------
    # compute
    # ------------------------------------------------------------------

    async def _compute_loop(self) -> None:
        session = self._session
        assert session is not None
        while True:
            while not self._queue:
                if self._done.is_set():
                    return
                self._work_ready.clear()
                await self._work_ready.wait()
            item = self._queue.popleft()
            if self._item_delay > 0:
                await self._sleep(self._item_delay)
            await self._run_item(item, session)
            self._items_completed += 1
            if (
                self._crash_after is not None
                and self._items_completed >= self._crash_after
            ):
                # Simulated kill: drop the connection without a goodbye.
                self._crashed = True
                self._writer.transport.abort()
                self._done.set()
                return
            # Yield so steal frames interleave between items.
            await asyncio.sleep(0)

    async def _run_item(self, item: _Item, session: _Session) -> None:
        rec = CountersRecorder() if session.observing else None
        sink: Recorder = rec if rec is not None else NULL_RECORDER
        stats = self.service.stats
        hits0, misses0, disk0 = stats.hits, stats.misses, stats.disk_hits
        started = time.perf_counter()
        try:
            columns = self.service.evaluate_grid_columns(
                session.config,
                item.streams,
                session.directory,
                recorder=sink,
                labels=item.labels,
                grid_name=session.grid_name,
            )
        except GridPointError as exc:
            partial = (
                exc.partial
                if isinstance(exc.partial, ResultColumns)
                else ResultColumns()
            )
            await protocol.send_frame(
                self._writer,
                {
                    "kind": "failed",
                    "chunk": item.chunk,
                    "index": item.indices[exc.index],
                    "label": exc.label,
                    "grid": exc.grid,
                    "error_type": type(exc.original).__name__,
                    "error": str(exc.original),
                    "partial_indices": item.indices[: len(partial)],
                    "partial": columns_to_payload(partial),
                },
            )
            return
        wall = time.perf_counter() - started
        if rec is not None:
            rec.observe("sweep.batch.wall_seconds", wall)
        delta = (stats.hits - hits0, stats.misses - misses0, stats.disk_hits - disk0)
        await protocol.send_frame(
            self._writer,
            {
                "kind": "result",
                "chunk": item.chunk,
                "indices": item.indices,
                "columns": columns_to_payload(columns),
                "snapshot": rec.snapshot() if rec is not None else None,
                "stats": list(delta),
                "wall": wall,
            },
        )


async def connect_worker(
    host: str,
    port: int,
    *,
    cache_dir: str | None = None,
    **kwargs: object,
) -> None:
    """Dial a coordinator and serve one session (spawned-local mode)."""
    reader, writer = await asyncio.open_connection(
        host, port, limit=protocol.MAX_FRAME_BYTES
    )
    worker = ClusterWorker(reader, writer, cache_dir=cache_dir, **kwargs)
    await worker.run()


async def serve_worker(
    host: str,
    port: int = 0,
    *,
    cache_dir: str | None = None,
) -> tuple[str, int, asyncio.AbstractServer]:
    """Listen for coordinators (``repro worker`` standalone mode).

    Each inbound connection is one coordinator session; the worker keeps
    listening after a session ends, so one standing ``repro worker`` can
    serve many sweeps. Returns the bound address and the server object.
    """

    async def handle(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await ClusterWorker(reader, writer, cache_dir=cache_dir).run()
        except (SweepError, ConnectionError, asyncio.IncompleteReadError):  # simlint: ignore[silent-except] -- a broken coordinator session must not kill the listener
            pass

    server = await asyncio.start_server(
        handle, host, port, limit=protocol.MAX_FRAME_BYTES
    )
    bound_host, bound_port = server.sockets[0].getsockname()[:2]
    return bound_host, bound_port, server
