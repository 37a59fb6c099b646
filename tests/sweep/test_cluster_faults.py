"""Fault injection for the cluster backend, on the fake clock.

Every scenario runs a real :class:`Coordinator` and in-process
:class:`ClusterWorker` instances over real socketpairs, as the backend
joins its forked workers, but with the injected clock/sleep pair from
:mod:`tests.serve.conftest` — so slow workers, heartbeat timeouts, and
steal/requeue races elapse deterministically in zero wall time, and
every outcome is asserted bit-identical to serial.
"""

import asyncio
import socket

import pytest

from repro.memsim import Op, StreamSpec
from repro.memsim.config import DirectoryState, paper_config
from repro.obs import NULL_RECORDER, CountersRecorder
from repro.sweep import DiskCache, EvaluationService, SweepRunner
from repro.sweep.cache import columns_to_payload
from repro.sweep.cluster import ClusterOptions, Session, protocol
from repro.sweep.cluster.coordinator import Coordinator
from repro.sweep.cluster.worker import ClusterWorker
from repro.workloads.grids import SweepGrid, SweepPoint

from tests.serve.conftest import FakeClock, run_async
from tests.sweep.test_cluster import failure_outcome, sweep_counters

CONFIG = paper_config()
STATE = DirectoryState.cold()


def _point(label: str, *, threads: int = 4, size: int = 4096) -> SweepPoint:
    spec = StreamSpec(
        op=Op.READ, threads=threads, access_size=size,
        issuing_socket=0, target_socket=0,
    )
    return SweepPoint(label=label, params={"threads": threads}, streams=(spec,))


def _grid(n: int = 12) -> SweepGrid:
    # Unique-content points: hit/miss tallies then partition exactly
    # across chunk and steal boundaries.
    return SweepGrid(
        name="faults",
        points=tuple(_point(f"p{i}", threads=i + 1) for i in range(n)),
    )


def _serial(grid: SweepGrid):
    """The oracle: one ``evaluate`` call per point, keyed by label."""
    service = EvaluationService(memoize=False)
    return {
        point.label: service.evaluate(paper_config(), point.streams)
        for point in grid
    }


async def _attach_pair(coordinator):
    """A socketpair with one end attached to ``coordinator``.

    Returns the streams of the other end, the worker's.
    """
    mine, theirs = socket.socketpair()
    coordinator.attach(*await protocol.open_link(mine))
    return await protocol.open_link(theirs)


def _worker(grid, options, recorder, reader, writer, clock, **kwargs):
    """An in-process worker on ``grid``, its session as the backend builds it."""
    session = Session(
        config=CONFIG, directory=STATE, grid_name=grid.name,
        observing=recorder.enabled,
        points_per_item=options.points_per_item,
        heartbeat_seconds=options.heartbeat_seconds,
    )
    return ClusterWorker(
        reader, writer, session, list(grid), sleep=clock.sleep, **kwargs
    )


async def _run_scenario(
    grid: SweepGrid,
    worker_kwargs: list[dict],
    options: ClusterOptions,
    *,
    recorder=NULL_RECORDER,
    service: EvaluationService | None = None,
    advance_step: float = 60.0,
    max_advances: int = 200,
):
    """Drive one sweep to completion, advancing the fake clock as needed.

    Returns ``(labels, columns, workers)``; raises whatever
    :meth:`Coordinator.finish` raises.
    """
    clock = FakeClock()
    svc = service if service is not None else EvaluationService(memoize=False)
    points = list(grid)
    coordinator = Coordinator(
        grid.name, points,
        config=CONFIG, directory=STATE,
        service=svc, recorder=recorder, options=options,
        workers_hint=len(worker_kwargs),
        clock=clock.time, sleep=clock.sleep,
    )
    workers: list[ClusterWorker] = []
    tasks: list[asyncio.Task] = []
    for kwargs in worker_kwargs:
        reader, writer = await _attach_pair(coordinator)
        worker = _worker(grid, options, recorder, reader, writer, clock, **kwargs)
        workers.append(worker)
        tasks.append(asyncio.ensure_future(worker.run()))
    finish = asyncio.ensure_future(coordinator.finish())
    try:
        for _ in range(max_advances):
            await clock.drain()
            if finish.done():
                break
            await clock.advance(advance_step)
        assert finish.done(), "sweep did not finish under the fake clock"
        labels, columns = await finish
        return labels, columns, workers
    finally:
        if not finish.done():
            finish.cancel()
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)


def _assert_matches_serial(grid, labels, columns) -> None:
    serial = _serial(grid)
    assert labels == list(serial)
    for row, label in enumerate(labels):
        view = columns.view(row)
        assert view.streams == serial[label].streams
        assert view.counters == serial[label].counters
        assert view.directory_after == serial[label].directory_after


class TestSlowWorkerSteal:
    def test_idle_worker_steals_from_straggler(self):
        # 48 points shard so the straggler's first chunk holds 6: one
        # in-flight (unstealable) plus a queue worth relinquishing.
        grid = _grid(48)
        recorder = CountersRecorder()
        options = ClusterOptions(
            points_per_item=1,
            heartbeat_seconds=10.0,
            heartbeat_timeout_seconds=1e12,  # nothing dies in this test
        )

        async def scenario():
            # Worker 1 parks on the fake clock before every item; worker 0
            # runs at full speed, drains the pending chunks, and must then
            # steal the straggler's queue.
            return await _run_scenario(
                grid,
                [dict(), dict(item_delay_seconds=50.0)],
                options,
                recorder=recorder,
            )

        labels, columns, _ = run_async(scenario())
        _assert_matches_serial(grid, labels, columns)
        counters = recorder.snapshot()["counters"]
        assert counters["cluster.chunks.stolen_count"] >= 1
        assert counters.get("cluster.chunks.requeued_count", 0) == 0
        assert counters["sweep.points_count"] == len(list(grid))


    def test_steal_moves_points_at_the_default_item_size(self):
        # The default work item is a kernel-sized batch; a straggler's
        # first chunk of a 1000-point grid still queues several of them,
        # so an idle worker steals some.
        grid = _grid(1000)
        recorder = CountersRecorder()
        options = ClusterOptions(
            heartbeat_seconds=10.0,
            heartbeat_timeout_seconds=1e12,
        )
        assert options.points_per_item == ClusterOptions().points_per_item

        async def scenario():
            return await _run_scenario(
                grid,
                [dict(), dict(item_delay_seconds=50.0)],
                options,
                recorder=recorder,
            )

        labels, columns, _ = run_async(scenario())
        assert (labels, columns) == SweepRunner(EvaluationService()).run_columns(grid)
        counters = recorder.snapshot()["counters"]
        assert counters["cluster.chunks.stolen_count"] >= 1
        assert counters.get("cluster.chunks.requeued_count", 0) == 0


class TestWorkerCrash:
    def test_crashed_worker_chunk_requeued_bit_identical(self):
        # The crashing worker's chunk holds 6 points = 3 items of 2: it
        # dies after the first, leaving 4 unfilled points to requeue.
        grid = _grid(48)
        recorder = CountersRecorder()
        options = ClusterOptions(
            points_per_item=2,
            heartbeat_seconds=10.0,
            heartbeat_timeout_seconds=1e12,  # death comes from the EOF
        )

        async def scenario():
            # Worker 1 aborts its transport after one item — a kill -9
            # mid-chunk. The coordinator must requeue its unfilled points
            # for worker 0.
            return await _run_scenario(
                grid,
                [dict(), dict(crash_after_items=1)],
                options,
                recorder=recorder,
            )

        labels, columns, _ = run_async(scenario())
        _assert_matches_serial(grid, labels, columns)
        counters = recorder.snapshot()["counters"]
        assert counters["cluster.chunks.requeued_count"] >= 1

    def test_every_worker_dead_is_fatal(self):
        grid = _grid(8)
        options = ClusterOptions(
            points_per_item=1,
            heartbeat_timeout_seconds=1e12,
        )

        async def scenario():
            from repro.errors import SweepError

            with pytest.raises(SweepError, match="every cluster worker died"):
                await _run_scenario(
                    grid,
                    [dict(crash_after_items=1)],
                    options,
                )

        run_async(scenario())


class TestFailingGrid:
    """A poisoned point under steals and crashes: the error, its partial
    rows and the tallies are the in-process loop's."""

    @pytest.mark.parametrize(
        "slow",
        [dict(item_delay_seconds=50.0), dict(crash_after_items=1)],
        ids=["straggler", "crash"],
    )
    def test_failure_matches_vector(self, slow):
        from repro.errors import GridPointError

        points = list(_grid(48))
        bad = StreamSpec(
            op=Op.READ, threads=4, access_size=4096,
            issuing_socket=7, target_socket=0,
        )
        points[30] = SweepPoint(label="bad", params={}, streams=(bad,))
        grid = SweepGrid(name="faults", points=tuple(points))
        options = ClusterOptions(
            points_per_item=3,
            heartbeat_seconds=10.0,
            heartbeat_timeout_seconds=1e12,
        )
        vector_service, vector_rec = EvaluationService(), CountersRecorder()
        with pytest.raises(GridPointError) as want:
            SweepRunner(vector_service, recorder=vector_rec).run_columns(grid)
        service, recorder = EvaluationService(), CountersRecorder()

        async def scenario():
            with pytest.raises(GridPointError) as got:
                await _run_scenario(
                    grid, [dict(), slow], options,
                    recorder=recorder, service=service,
                )
            return got.value

        got = run_async(scenario())
        outcome = failure_outcome(got, service, recorder)
        assert outcome == failure_outcome(want.value, vector_service, vector_rec)
        assert (got.index, got.label) == (30, "bad")
        assert (service.stats.hits, service.stats.misses) == (0, 31)
        assert outcome[2]["sweep.cache.misses_count"] == 31


class TestHeartbeatTimeout:
    def test_silent_worker_declared_dead_and_requeued(self):
        grid = _grid(12)
        recorder = CountersRecorder()
        options = ClusterOptions(
            points_per_item=1,
            heartbeat_seconds=10.0,
            heartbeat_timeout_seconds=100.0,
        )

        async def scenario():
            # Worker 1 sends no heartbeats and parks forever before its
            # first item: work-stealing reclaims its queue, and only the
            # heartbeat timeout can reclaim the in-flight item.
            return await _run_scenario(
                grid,
                [dict(), dict(item_delay_seconds=1e15, heartbeat=False)],
                options,
                advance_step=60.0,
            )

        labels, columns, _ = run_async(scenario())
        _assert_matches_serial(grid, labels, columns)

    def test_heartbeats_keep_a_slow_worker_alive(self):
        grid = _grid(12)
        recorder = CountersRecorder()
        options = ClusterOptions(
            points_per_item=1,
            heartbeat_seconds=10.0,
            heartbeat_timeout_seconds=100.0,
        )

        async def scenario():
            # Same straggler, but heartbeating: it must never be declared
            # dead, so its one in-flight item completes on its own clock.
            return await _run_scenario(
                grid,
                [dict(), dict(item_delay_seconds=50.0)],
                options,
                recorder=recorder,
            )

        labels, columns, _ = run_async(scenario())
        _assert_matches_serial(grid, labels, columns)
        counters = recorder.snapshot()["counters"]
        assert counters.get("cluster.chunks.requeued_count", 0) == 0
        assert counters["cluster.heartbeats_count"] >= 1


async def _with_rogue(grid, rogue, *, recorder, service=None):
    """Sweep ``grid`` with one slow healthy worker and a ``rogue`` peer.

    The healthy worker is attached first and parks on the fake clock
    before each item, so its chunk is still unfilled while
    ``rogue(coordinator)`` runs. Returns ``finish()``'s result.
    """
    clock = FakeClock()
    options = ClusterOptions(
        points_per_item=2,
        heartbeat_seconds=10.0,
        heartbeat_timeout_seconds=1e12,  # death can only come from a frame
    )
    coordinator = Coordinator(
        grid.name, list(grid),
        config=CONFIG, directory=STATE,
        service=service if service is not None else EvaluationService(memoize=False),
        recorder=recorder, workers_hint=2, options=options,
        clock=clock.time, sleep=clock.sleep,
    )
    reader, writer = await _attach_pair(coordinator)
    healthy = _worker(
        grid, options, recorder, reader, writer, clock, item_delay_seconds=50.0
    )
    worker_task = asyncio.ensure_future(healthy.run())
    await clock.drain()
    await rogue(coordinator)
    finish = asyncio.ensure_future(coordinator.finish())
    try:
        for _ in range(200):
            await clock.drain()
            if finish.done():
                break
            await clock.advance(60.0)
        assert finish.done(), "the sweep never finished"
        return await finish
    finally:
        if not finish.done():
            finish.cancel()
        worker_task.cancel()
        await asyncio.gather(worker_task, return_exceptions=True)


async def _rogue_peer(coordinator):
    """A peer attached on a socketpair; returns its streams and first chunk."""
    reader, writer = await _attach_pair(coordinator)
    chunk = await protocol.read_frame(reader)
    assert chunk["kind"] == "chunk"
    return reader, writer, chunk


async def _dropped(reader) -> bool:
    """Whether the coordinator has closed the link (within a few seconds)."""
    return await asyncio.wait_for(protocol.read_frame(reader), 5.0) is None


class TestMalformedFrame:
    def test_malformed_result_drops_the_link_and_requeues_at_once(self):
        grid = _grid(16)
        recorder = CountersRecorder()

        async def rogue(coordinator):
            """Takes a chunk, answers it with a field missing."""
            reader, writer, chunk = await _rogue_peer(coordinator)
            await protocol.send_frame(
                writer, {"kind": "result", "chunk": chunk["chunk"]}
            )
            assert await _dropped(reader)
            writer.close()

        labels, columns = run_async(_with_rogue(grid, rogue, recorder=recorder))
        _assert_matches_serial(grid, labels, columns)
        counters = recorder.snapshot()["counters"]
        assert counters["cluster.chunks.requeued_count"] >= 1
        assert counters["cluster.workers_count"] == 2


    def test_result_with_other_stream_counts_drops_the_link(self):
        # A self-consistent rows payload whose first point has twice the
        # streams it was shipped with: the coordinator re-attaches the
        # shipped specs, so the offsets must give each point its own count.
        grid = _grid(16)
        recorder = CountersRecorder()

        async def rogue(coordinator):
            reader, writer, chunk = await _rogue_peer(coordinator)
            shipped = [grid.points[i].streams for i in chunk["indices"]]
            answered = [shipped[0] * 2, *shipped[1:]]
            payload = columns_to_payload(
                EvaluationService(memoize=False).evaluate_grid_columns(
                    CONFIG, answered
                ),
                specs=False,
            )
            await protocol.send_frame(writer, {
                "kind": "result", "chunk": chunk["chunk"],
                "indices": chunk["indices"], "rows": payload,
                "snapshot": None, "wall": 0.1,
            })
            assert await _dropped(reader)
            writer.close()

        labels, columns = run_async(_with_rogue(grid, rogue, recorder=recorder))
        assert (labels, columns) == SweepRunner(EvaluationService()).run_columns(grid)
        counters = recorder.snapshot()["counters"]
        assert counters["cluster.chunks.requeued_count"] >= 1


class TestRoguePeer:
    def test_answering_another_workers_chunk_drops_the_peer(self):
        # The rogue answers the healthy worker's chunk with doubled
        # bandwidths. Kept, those rows would be the sweep's result.
        grid = _grid(16)
        recorder = CountersRecorder()

        async def rogue(coordinator):
            reader, writer, _ = await _rogue_peer(coordinator)
            healthy = coordinator._links[1]
            chunk, indices = next(iter(healthy.outstanding.items()))
            indices = sorted(indices)
            payload = columns_to_payload(
                EvaluationService(memoize=False).evaluate_grid_columns(
                    CONFIG, [grid.points[i].streams for i in indices]
                ),
                specs=False,
            )
            payload["streams"]["gbps"] = [2 * g for g in payload["streams"]["gbps"]]
            await protocol.send_frame(writer, {
                "kind": "result", "chunk": chunk, "indices": indices,
                "rows": payload, "snapshot": None, "wall": 0.1,
                # Ignored; present so that only the chunk check rejects it.
                "stats": [0, len(indices), 0],
            })
            assert await _dropped(reader)
            writer.close()

        labels, columns = run_async(_with_rogue(grid, rogue, recorder=recorder))
        assert (labels, columns) == SweepRunner(EvaluationService()).run_columns(grid)
        counters = recorder.snapshot()["counters"]
        assert counters["cluster.chunks.requeued_count"] >= 1

    def test_failed_frame_for_a_good_point_completes_in_process(self):
        # The rogue claims its chunk holds a failing point. Nothing in
        # the grid fails, so the in-process re-run completes it.
        grid = _grid(16)
        service, recorder = EvaluationService(), CountersRecorder()

        async def rogue(coordinator):
            reader, writer, chunk = await _rogue_peer(coordinator)
            await protocol.send_frame(writer, {
                "kind": "failed", "chunk": chunk["chunk"],
                "indices": chunk["indices"],
            })
            writer.close()

        got = run_async(_with_rogue(grid, rogue, recorder=recorder, service=service))
        vector_service, vector_rec = EvaluationService(), CountersRecorder()
        want = SweepRunner(vector_service, recorder=vector_rec).run_columns(grid)
        assert got == want
        assert service.stats == vector_service.stats
        assert sweep_counters(recorder) == sweep_counters(vector_rec)


class TestSharedCacheCorruption:
    def test_corrupt_blocks_read_as_miss_and_heal(self, tmp_path):
        grid = _grid(10)
        options = ClusterOptions(points_per_item=2, heartbeat_timeout_seconds=1e12)

        def cluster_run(recorder=NULL_RECORDER):
            async def scenario():
                service = EvaluationService(disk_cache=DiskCache(tmp_path))
                labels, columns, _ = await _run_scenario(
                    grid, [dict(), dict()], options,
                    recorder=recorder, service=service,
                )
                return labels, columns, service

            return run_async(scenario())

        labels, columns, _ = cluster_run()
        _assert_matches_serial(grid, labels, columns)
        blocks = sorted((tmp_path / "blocks").rglob("*.json"))
        assert blocks
        for path in blocks:
            path.write_text("not json {")
        # Corrupt blocks must read as misses of the coordinator's disk
        # lookup: the second run ships and recomputes everything, and the
        # coordinator stores the rows back — healing the same
        # content-addressed block files in place.
        rec2 = CountersRecorder()
        labels2, columns2, service2 = cluster_run(rec2)
        _assert_matches_serial(grid, labels2, columns2)
        assert service2.stats.misses == len(list(grid))
        assert service2.stats.disk_hits == 0
        counters = rec2.snapshot()["counters"]
        assert counters["sweep.cache.misses_count"] == len(list(grid))
        assert "sweep.cache.hits_count" not in counters
        # Healed: a third run over the same root is all disk hits.
        rec3 = CountersRecorder()
        labels3, columns3, service3 = cluster_run(rec3)
        _assert_matches_serial(grid, labels3, columns3)
        assert service3.stats.disk_hits == len(list(grid))
        assert service3.stats.misses == 0
        assert "cluster.chunks.shipped_count" not in rec3.snapshot()["counters"]
