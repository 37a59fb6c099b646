"""Cluster sweep worker: evaluates point chunks for its coordinator.

One :class:`ClusterWorker` serves one coordinator session over one end
of a socketpair. The worker is a child the coordinator forked for this
sweep, and it is constructed with everything the session pins: a
:class:`Session` (machine config, directory state, grid name and gather
knobs) and the grid's points. The coordinator then drives it with
``chunk`` frames naming grid indices, which the worker evaluates
through its own non-memoizing
:class:`~repro.sweep.service.EvaluationService`. A worker is stateless
compute: the coordinator has already answered every point its own
caches hold and stores the rows the worker returns, so the worker keeps
no cache of any kind, in memory or on disk.

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
  :class:`~repro.obs.CountersRecorder`, shipped as a snapshot with the
  item's ``result`` frame; the coordinator merges snapshots in grid
  order and counts the item's rows as misses. The item's wall time is
  one ``sweep.batch.wall_seconds`` observation. An item with a failing
  point answers with a bare ``failed`` frame: the coordinator then
  re-runs the whole grid in process, so nothing about the failure
  needs to cross the wire.

Fault injection (``item_delay_seconds``, ``crash_after_items``,
``heartbeat``) exists for the deterministic fault tests: the delay parks
compute on the *injected* sleep so a fake clock controls when a worker
looks slow, and the crash knob aborts the transport mid-session the way
a killed process would.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass
from typing import Awaitable, Callable, Mapping, Sequence

from repro.errors import GridPointError, SweepError
from repro.memsim.config import DirectoryState, MachineConfig
from repro.obs import NULL_RECORDER, CountersRecorder, Recorder
from repro.sweep.cache import columns_to_payload
from repro.sweep.cluster import protocol
from repro.sweep.service import EvaluationService
from repro.workloads.grids import SweepPoint

__all__ = ["ClusterWorker", "Session"]


@dataclass
class _Item:
    """One unit of work: a slice of a chunk, with its global indices."""

    chunk: int
    indices: list[int]


@dataclass(frozen=True)
class Session:
    """Everything one sweep pins for its workers, given at fork."""

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
    session, points:
        The sweep's session and its grid's points; ``chunk`` frames name
        points by their index here.
    sleep:
        Injectable async sleep — the fault tests drive it with a fake
        clock.
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
        session: Session,
        points: Sequence[SweepPoint],
        *,
        sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
        item_delay_seconds: float = 0.0,
        crash_after_items: int | None = None,
        heartbeat: bool = True,
    ) -> None:
        self._service = EvaluationService(memoize=False)
        self._reader = reader
        self._writer = writer
        self._session = session
        self._points = points
        self._sleep = sleep
        self._item_delay = item_delay_seconds
        self._crash_after = crash_after_items
        self._heartbeat_enabled = heartbeat
        self._queue: deque[_Item] = deque()
        self._work_ready = asyncio.Event()
        self._done = asyncio.Event()
        self._items_completed = 0
        self._crashed = False

    # ------------------------------------------------------------------
    # session
    # ------------------------------------------------------------------

    async def run(self) -> None:
        """Serve one coordinator session to completion."""
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
        while True:
            frame = await protocol.read_frame(self._reader)
            if frame is None or frame.get("kind") == "bye":
                self._done.set()
                self._work_ready.set()
                return
            kind = frame["kind"]
            if kind == "chunk":
                self._enqueue_chunk(frame)
            elif kind == "steal":
                await self._answer_steal(frame)
            else:
                raise SweepError(f"cluster worker got unknown frame kind {kind!r}")

    def _enqueue_chunk(self, frame: Mapping[str, object]) -> None:
        chunk = protocol.field(frame, "chunk", int)
        indices = list(protocol.field(frame, "indices", tuple[int, ...]))
        if not all(0 <= index < len(self._points) for index in indices):
            raise SweepError("cluster chunk names a point outside the grid")
        step = self._session.points_per_item
        for lo in range(0, len(indices), step):
            self._queue.append(_Item(chunk, indices[lo:lo + step]))
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
        while not self._done.is_set():
            await self._sleep(self._session.heartbeat_seconds)
            await protocol.send_frame(self._writer, {"kind": "heartbeat"})

    # ------------------------------------------------------------------
    # compute
    # ------------------------------------------------------------------

    async def _compute_loop(self) -> None:
        while True:
            while not self._queue:
                if self._done.is_set():
                    return
                self._work_ready.clear()
                await self._work_ready.wait()
            item = self._queue.popleft()
            if self._item_delay > 0:
                await self._sleep(self._item_delay)
            await self._run_item(item)
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

    async def _run_item(self, item: _Item) -> None:
        session = self._session
        points = [self._points[index] for index in item.indices]
        rec = CountersRecorder() if session.observing else None
        sink: Recorder = rec if rec is not None else NULL_RECORDER
        started = time.perf_counter()
        try:
            columns = self._service.evaluate_grid_columns(
                session.config,
                [point.streams for point in points],
                session.directory,
                recorder=sink,
                labels=[point.label for point in points],
                grid_name=session.grid_name,
            )
        except GridPointError:
            await protocol.send_frame(
                self._writer,
                {"kind": "failed", "chunk": item.chunk, "indices": item.indices},
            )
            return
        wall = time.perf_counter() - started
        if rec is not None:
            rec.observe("sweep.batch.wall_seconds", wall)
        await protocol.send_frame(
            self._writer,
            {
                "kind": "result",
                "chunk": item.chunk,
                "indices": item.indices,
                "rows": columns_to_payload(columns, specs=False),
                "snapshot": rec.snapshot() if rec is not None else None,
                "wall": wall,
            },
        )

