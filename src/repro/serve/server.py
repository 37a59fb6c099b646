"""The asyncio bandwidth server: gather-window coalescing + admission.

:class:`BandwidthServer` is the front door ROADMAP item 1 asks for: a
long-lived process that turns many small evaluation requests into few
large structure-of-arrays kernel calls. The mechanism is a **gather
window**: the first admitted ``evaluate`` request starts a timer; every
request arriving before it fires joins the same pending batch; when the
window closes the batch goes through
:meth:`~repro.sweep.service.EvaluationService.evaluate_grid_columns`
as *one* columnar call and each answer is sliced back out of the
:class:`~repro.memsim.kernels.columns.ResultColumns` block.

Design rules the tests pin down:

* **Cache keys are untouched.** A coalesced request is answered from
  exactly the rows a serial ``evaluate()`` would produce; a duplicate
  within a window rides its group's batch, where the service answers it
  from the earlier row as a memo hit, so hit/miss accounting matches
  the serial run to the unit.
* **Time is injectable.** The clock and sleep used for windows, frame
  timeouts, and deadlines come from the constructor; the fault tests
  drive a fake clock and never really sleep.
* **Failures are answers.** Admission rejections, expired deadlines,
  poisoned points, and protocol violations all produce typed error
  frames (:class:`~repro.errors.ServeError` codes); a poisoned point in
  a batch fails only its own request — batch-mates are still answered.
"""

from __future__ import annotations

import asyncio
import json
import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Awaitable, Callable, Mapping

from repro import units
from repro.core.advisor import PlacementAdvisor
from repro.errors import ConfigurationError, GridPointError, ServeError
from repro.obs import Recorder, default_recorder
from repro.serve import protocol
from repro.serve.protocol import Request
from repro.sweep.service import EvaluationService, default_service, request_key

if TYPE_CHECKING:
    from repro.memsim.config import DirectoryState, MachineConfig
    from repro.memsim.kernels.columns import ResultColumns
    from repro.memsim.spec import StreamSpec
    from repro.sweep.service import RequestKey

__all__ = ["BandwidthServer", "ServeConfig", "ServeStats"]


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one :class:`BandwidthServer`.

    The defaults suit an in-process or localhost deployment: a 2 ms
    gather window is long enough to coalesce a concurrent burst and
    short enough to be invisible next to a cold evaluation.
    """

    #: Seconds the first queued request waits for batch-mates.
    gather_window_seconds: float = 0.002
    #: Most points drained into one batch (larger bursts roll over).
    max_batch_points: int = 64
    #: Most requests waiting for a window; beyond this, shed.
    max_queue_depth: int = 256
    #: Seconds a connection may stall mid-frame before being dropped.
    frame_timeout_seconds: float = 30.0
    #: Largest accepted frame; longer lines are a protocol violation.
    max_frame_bytes: int = 64 * units.KIB

    def __post_init__(self) -> None:
        window = self.gather_window_seconds
        if not 0.0 <= window < math.inf:
            raise ConfigurationError(
                f"gather_window_seconds must be >= 0 and finite, got {window}"
            )
        for name in (
            "frame_timeout_seconds", "max_frame_bytes",
            "max_batch_points", "max_queue_depth",
        ):
            value = getattr(self, name)
            if not value > 0:
                raise ConfigurationError(f"{name} must be positive, got {value}")

    def retry_after(self) -> float:
        """The ``retry_after_seconds`` hint on shed responses: two gather
        windows (one to drain, one to re-arrive)."""
        return 2.0 * self.gather_window_seconds


@dataclass
class ServeStats:
    """In-process tallies mirroring the ``serve.*`` counter catalog.

    Counters are exact; latency percentiles come from a bounded ring of
    recent wall-clock samples (the obs histogram keeps only
    count/total/min/max, which cannot answer p99).

    ``deduped`` counts requests whose key an earlier request of the same
    window already carried. Such repeats stay in their ``(config,
    directory)`` group, so ``coalesced_points`` (the requests of every
    multi-request group) and the ``serve.coalesce.batch_size_count``
    samples count them too.
    """

    admitted: int = 0
    completed: int = 0
    shed: int = 0
    deadline_expired: int = 0
    errors: int = 0
    batches: int = 0
    coalesced_points: int = 0
    deduped: int = 0
    protocol_drops: int = 0
    max_queue_depth: int = 0
    latencies: deque = field(default_factory=lambda: deque(maxlen=4096))

    def latency_percentile(self, q: float) -> float:
        """The ``q``-quantile (0..1) of recent request latencies in seconds.

        Nearest-rank over the sample ring; 0.0 when no request has
        completed yet.
        """
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[rank]

    def describe(self) -> dict[str, object]:
        """A JSON-ready snapshot (the ``repro serve`` exit summary)."""
        return {
            "admitted": self.admitted,
            "completed": self.completed,
            "shed": self.shed,
            "deadline_expired": self.deadline_expired,
            "errors": self.errors,
            "batches": self.batches,
            "coalesced_points": self.coalesced_points,
            "deduped": self.deduped,
            "protocol_drops": self.protocol_drops,
            "max_queue_depth": self.max_queue_depth,
            "p50_latency_seconds": self.latency_percentile(0.50),
            "p99_latency_seconds": self.latency_percentile(0.99),
        }


@dataclass
class _Pending:
    """One admitted ``evaluate`` request waiting for its window."""

    request: Request
    future: "asyncio.Future[dict[str, object]]"
    admitted_seconds: float
    #: Absolute deadline on the server clock, or ``None``.
    deadline_seconds: "float | None"
    key: "RequestKey"


class BandwidthServer:
    """Accepts protocol frames and answers them; see the module docstring.

    The server is single-loop: every public coroutine must run on the
    same event loop. ``submit`` is the in-process entry point (the TCP
    listener is a thin framing layer over it) and *always* returns a
    response frame — errors included — so transports never see
    exceptions.
    """

    def __init__(
        self,
        service: "EvaluationService | None" = None,
        *,
        config: "ServeConfig | None" = None,
        recorder: "Recorder | None" = None,
        clock: "Callable[[], float] | None" = None,
        sleep: "Callable[[float], Awaitable[None]] | None" = None,
    ) -> None:
        self.service = service if service is not None else default_service()
        self.config = config if config is not None else ServeConfig()
        self._recorder = recorder
        self._clock = clock
        self._sleep = sleep if sleep is not None else asyncio.sleep
        self.stats = ServeStats()
        self._advisor = PlacementAdvisor()
        self._queue: deque[_Pending] = deque()
        self._batcher: "asyncio.Task[None] | None" = None
        self._tcp_server: "asyncio.base_events.Server | None" = None
        self._connection_tasks: set["asyncio.Task[None]"] = set()
        self._closing = False

    # ------------------------------------------------------------------
    # clock / recorder plumbing
    # ------------------------------------------------------------------

    def _now(self) -> float:
        if self._clock is not None:
            return self._clock()
        return asyncio.get_running_loop().time()

    @property
    def recorder(self) -> Recorder:
        rec = self._recorder
        return rec if rec is not None else default_recorder()

    # ------------------------------------------------------------------
    # in-process entry point
    # ------------------------------------------------------------------

    async def submit(self, payload: "Mapping[str, object] | bytes | str") -> dict[str, object]:
        """Answer one request frame (parsed object or raw line).

        Never raises for request-scoped failures: bad frames, shed
        requests, expired deadlines, and evaluation errors all come back
        as error responses carrying the request id when one could be
        extracted.
        """
        request_id: object = None
        try:
            if isinstance(payload, (bytes, str)):
                try:
                    payload = json.loads(payload)
                except ValueError as exc:
                    raise ServeError("bad_request", f"frame is not JSON: {exc}") from exc
            if isinstance(payload, Mapping):
                request_id = payload.get("id")
            request = protocol.decode_request(payload)
            request_id = request.id
            return await self._dispatch(request)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 — every failure becomes a frame
            if not isinstance(exc, ServeError):
                self.stats.errors += 1
                rec = self.recorder
                if rec.enabled:
                    rec.incr("serve.errors_count")
            return protocol.error_response(request_id, exc)

    async def _dispatch(self, request: Request) -> dict[str, object]:
        rec = self.recorder
        if rec.enabled:
            rec.incr("serve.requests_count")
        if request.kind == "ping":
            return protocol.ok_response(request.id, "ping", {"protocol": protocol.PROTOCOL})
        if request.kind == "advise":
            recommendation = self._advisor.recommend(request.intent)
            return protocol.ok_response(
                request.id, "advise", protocol.encode_recommendation(recommendation)
            )
        if self._closing:
            raise ServeError("shutdown", "server is shutting down")
        if request.kind == "sweep":
            return await self._handle_sweep(request)
        return await self._handle_evaluate(request)

    # ------------------------------------------------------------------
    # sweep: admitted and evaluated as one unit
    # ------------------------------------------------------------------

    async def _handle_sweep(self, request: Request) -> dict[str, object]:
        cost = len(request.points)
        if len(self._queue) + cost > self.config.max_queue_depth:
            self._shed(cost)
            raise ServeError(
                "shed",
                f"queue full ({len(self._queue)}/{self.config.max_queue_depth}); "
                f"sweep of {cost} points rejected",
                retry_after_seconds=self.config.retry_after(),
            )
        start = self._now()
        self.stats.admitted += cost
        columns, failures = self._evaluate_points(
            request.config,
            list(request.points),
            request.directory,
            labels=[f"{request.id}[{i}]" for i in range(cost)],
        )
        if failures:
            index, original = failures[0]
            self.stats.errors += 1
            rec = self.recorder
            if rec.enabled:
                rec.incr("serve.errors_count")
            raise ServeError("evaluation", str(original))
        results = [
            protocol.encode_point(columns, i, include_counters=request.include_counters)
            for i in range(cost)
        ]
        self.stats.completed += cost
        self._observe_latency(self._now() - start)
        return protocol.ok_response(request.id, "sweep", {"points": results})

    # ------------------------------------------------------------------
    # evaluate: admission, gather window, batch slice
    # ------------------------------------------------------------------

    async def _handle_evaluate(self, request: Request) -> dict[str, object]:
        if len(self._queue) >= self.config.max_queue_depth:
            self._shed(1)
            raise ServeError(
                "shed",
                f"queue full ({len(self._queue)}/{self.config.max_queue_depth})",
                retry_after_seconds=self.config.retry_after(),
            )
        now = self._now()
        deadline = (
            now + request.deadline_seconds if request.deadline_seconds is not None else None
        )
        pending = _Pending(
            request=request,
            future=asyncio.get_running_loop().create_future(),
            admitted_seconds=now,
            deadline_seconds=deadline,
            key=request_key(request.config, request.streams, request.directory),
        )
        self._queue.append(pending)
        self.stats.admitted += 1
        depth = len(self._queue)
        self.stats.max_queue_depth = max(self.stats.max_queue_depth, depth)
        rec = self.recorder
        if rec.enabled:
            rec.observe("serve.queue.depth_count", depth)
        self._ensure_batcher()
        response = await pending.future
        self._observe_latency(self._now() - pending.admitted_seconds)
        return response

    def _ensure_batcher(self) -> None:
        if self._batcher is None and not self._closing:
            self._batcher = asyncio.get_running_loop().create_task(self._batch_loop())

    async def _batch_loop(self) -> None:
        """Drain the queue one gather window at a time.

        The task retires itself when the queue empties; the emptiness
        check and the ``self._batcher = None`` clear happen in the same
        synchronous step, so a request admitted concurrently either sees
        the live task or starts a fresh one — no lost wakeups.
        """
        while True:
            if not self._queue:
                self._batcher = None
                return
            await self._sleep(self.config.gather_window_seconds)
            self._run_batch()

    def _run_batch(self) -> None:
        """Answer up to ``max_batch_points`` queued requests in one pass."""
        rec = self.recorder
        batch: list[_Pending] = []
        while self._queue and len(batch) < self.config.max_batch_points:
            pending = self._queue.popleft()
            if pending.future.cancelled():
                continue
            if pending.deadline_seconds is not None and self._now() > pending.deadline_seconds:
                self.stats.deadline_expired += 1
                if rec.enabled:
                    rec.incr("serve.deadline.expired_count")
                pending.future.set_result(
                    protocol.error_response(
                        pending.request.id,
                        ServeError(
                            "deadline",
                            "deadline expired after "
                            f"{self._now() - pending.admitted_seconds:.6f}s in queue",
                        ),
                    )
                )
                continue
            batch.append(pending)
        if not batch:
            return

        # Group by (config, directory): ``evaluate_grid_columns`` takes
        # one config and one input state per call. A request repeating an
        # earlier one joins its group like any other; the service answers
        # it from the earlier row as a memo hit, exactly as it would a
        # serial replay of the same submissions.
        seen: set["RequestKey"] = set()
        groups: dict[tuple, list[_Pending]] = {}
        for pending in batch:
            if pending.key in seen:
                self.stats.deduped += 1
                if rec.enabled:
                    rec.incr("serve.dedup.joined_count")
            else:
                seen.add(pending.key)
            group_key = (id(pending.request.config), pending.request.directory)
            groups.setdefault(group_key, []).append(pending)

        for group in groups.values():
            self.stats.batches += 1
            if rec.enabled:
                rec.incr("serve.coalesce.batches_count")
                rec.observe("serve.coalesce.batch_size_count", len(group))
            if len(group) > 1:
                self.stats.coalesced_points += len(group)
            columns, failures = self._evaluate_points(
                group[0].request.config,
                [pending.request.streams for pending in group],
                group[0].request.directory,
                labels=[str(pending.request.id) for pending in group],
            )
            failed = dict(failures)
            for row, pending in enumerate(group):
                if pending.future.done():
                    continue
                original = failed.get(row)
                if original is not None:
                    self.stats.errors += 1
                    if rec.enabled:
                        rec.incr("serve.errors_count")
                    pending.future.set_result(
                        protocol.error_response(
                            pending.request.id, ServeError("evaluation", str(original))
                        )
                    )
                    continue
                self.stats.completed += 1
                pending.future.set_result(
                    protocol.ok_response(
                        pending.request.id,
                        "evaluate",
                        protocol.encode_point(
                            columns,
                            row,
                            include_counters=pending.request.include_counters,
                        ),
                    )
                )

    def _evaluate_points(
        self,
        config: "MachineConfig",
        points: list[tuple["StreamSpec", ...]],
        directory: "DirectoryState",
        *,
        labels: list[str],
    ) -> tuple["ResultColumns", list[tuple[int, Exception]]]:
        """Evaluate ``points`` as columnar batches, isolating poisoned rows.

        ``evaluate_grid_columns`` stops at the first failing point; this
        wrapper records the failure against that row only, keeps the
        partial batch, and resumes with the remaining points, so one bad
        request never takes down its batch-mates. Rows come back in
        ``points`` order; ``failures`` maps row index → original error.
        """
        from repro.memsim.kernels.columns import ResultColumns

        out = ResultColumns()
        failures: list[tuple[int, Exception]] = []
        base = 0
        remaining = points
        remaining_labels = labels
        while remaining:
            try:
                block = self.service.evaluate_grid_columns(
                    config,
                    remaining,
                    directory,
                    recorder=self.recorder,
                    labels=remaining_labels,
                    grid_name="serve.batch",
                )
            except GridPointError as exc:
                partial = exc.partial
                if partial is not None:
                    out.extend(partial)
                failures.append((base + exc.index, exc))
                skip = exc.index + 1
                # Placeholder row for the poisoned point keeps row
                # numbering aligned with the input order.
                out.append_result(_EMPTY_RESULT, directory_after=None)
                base += skip
                remaining = remaining[skip:]
                remaining_labels = remaining_labels[skip:]
                continue
            out.extend(block)
            break
        return out, failures

    # ------------------------------------------------------------------
    # shed / stats helpers
    # ------------------------------------------------------------------

    def _shed(self, count: int) -> None:
        self.stats.shed += count
        rec = self.recorder
        if rec.enabled:
            for _ in range(count):
                rec.incr("serve.shed_count")

    def _observe_latency(self, wall_seconds: float) -> None:
        self.stats.latencies.append(wall_seconds)
        rec = self.recorder
        if rec.enabled:
            rec.observe("serve.latency.wall_seconds", wall_seconds)

    # ------------------------------------------------------------------
    # TCP transport
    # ------------------------------------------------------------------

    async def serve_tcp(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Start listening; returns the bound ``(host, port)``.

        ``port=0`` binds an ephemeral port — the tests and the CLI print
        the real one. The reader ``limit`` doubles as the frame-size
        bound: an overlong line raises inside ``readline`` and the
        connection is dropped as a protocol violation.
        """
        self._tcp_server = await asyncio.start_server(
            self._handle_connection, host, port, limit=self.config.max_frame_bytes
        )
        sockname = self._tcp_server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connection_tasks.add(task)
            task.add_done_callback(self._connection_tasks.discard)
        write_lock = asyncio.Lock()
        in_flight: set["asyncio.Task[None]"] = set()
        try:
            while True:
                try:
                    line = await self._read_frame(reader)
                except ServeError as exc:
                    self.stats.protocol_drops += 1
                    if self.recorder.enabled:
                        self.recorder.incr("serve.protocol.drops_count")
                    await self._write_frame(
                        writer, write_lock, protocol.error_response(None, exc)
                    )
                    return
                if not line:
                    return
                respond = asyncio.get_running_loop().create_task(
                    self._respond(line, writer, write_lock)
                )
                in_flight.add(respond)
                respond.add_done_callback(in_flight.discard)
        except asyncio.CancelledError:
            # Server shutdown cancels connection tasks; finishing
            # normally here keeps asyncio's stream callback from
            # logging the cancellation as an error.
            return
        except (ConnectionError, OSError):
            self.stats.protocol_drops += 1
            if self.recorder.enabled:
                self.recorder.incr("serve.protocol.drops_count")
        finally:
            for respond in list(in_flight):
                respond.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # simlint: ignore[silent-except] -- already closing; the peer's RST is the expected outcome
                pass

    async def _read_frame(self, reader: asyncio.StreamReader) -> bytes:
        """One line off the socket, bounded in both time and size.

        Races ``readline`` against the frame timeout on the injected
        sleep so the slow-loris tests can fire it from a fake clock.
        Returns ``b""`` at EOF; raises ``ServeError("protocol", ...)``
        for a stalled or oversize frame.
        """
        loop = asyncio.get_running_loop()
        read = loop.create_task(_readline(reader))
        timer = loop.create_task(self._sleep(self.config.frame_timeout_seconds))
        try:
            done, _ = await asyncio.wait({read, timer}, return_when=asyncio.FIRST_COMPLETED)
        except asyncio.CancelledError:
            read.cancel()
            timer.cancel()
            raise
        if read in done:
            timer.cancel()
            result = read.result()
            if isinstance(result, Exception):
                raise ServeError(
                    "protocol",
                    f"frame exceeds {self.config.max_frame_bytes} bytes",
                )
            return result
        read.cancel()
        raise ServeError(
            "protocol",
            f"no complete frame within {self.config.frame_timeout_seconds}s",
        )

    async def _respond(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        response = await self.submit(line)
        await self._write_frame(writer, write_lock, response)

    async def _write_frame(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        response: Mapping[str, object],
    ) -> None:
        async with write_lock:
            try:
                writer.write(protocol.dump_line(response))
                await writer.drain()
            except (ConnectionError, OSError):
                # The client vanished mid-answer; the response dies with
                # the connection, nothing else is affected.
                self.stats.protocol_drops += 1
                if self.recorder.enabled:
                    self.recorder.incr("serve.protocol.drops_count")

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------

    async def close(self) -> None:
        """Stop accepting work and fail whatever is still queued.

        Idempotent. Queued ``evaluate`` futures are answered with a
        ``shutdown`` error rather than left hanging.
        """
        self._closing = True
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None
        for task in list(self._connection_tasks):
            task.cancel()
        if self._connection_tasks:
            await asyncio.gather(*self._connection_tasks, return_exceptions=True)
        batcher = self._batcher
        self._batcher = None
        if batcher is not None:
            batcher.cancel()
            try:
                await batcher
            except asyncio.CancelledError:  # simlint: ignore[silent-except] -- the cancellation is the point; the task holds no result
                pass
        while self._queue:
            pending = self._queue.popleft()
            if not pending.future.done():
                pending.future.set_result(
                    protocol.error_response(
                        pending.request.id,
                        ServeError("shutdown", "server closed before evaluation"),
                    )
                )


async def _readline(reader: asyncio.StreamReader) -> "bytes | Exception":
    """``readline`` that reports the over-limit ValueError as a value.

    ``asyncio.wait`` logs exceptions from unobserved tasks; returning
    the error keeps the race in :meth:`BandwidthServer._read_frame`
    quiet and lets it map the overrun to a protocol error.
    """
    try:
        return await reader.readline()
    except ValueError as exc:
        return exc


def _make_empty_result():
    from repro.memsim.evaluation import BandwidthResult

    return BandwidthResult(streams=(), directory_after=None)


#: Placeholder row appended for poisoned points so batch row numbering
#: stays aligned with input order (the row is never encoded — its
#: request is answered with the error instead).
_EMPTY_RESULT = _make_empty_result()
