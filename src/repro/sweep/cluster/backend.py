"""Synchronous entry point for ``backend="cluster"`` sweeps.

:func:`run_grid_columns` fans a grid out across worker processes it
forks for the sweep. Its result is bit-identical to the in-process
``vector`` backend's.

Each worker is joined to the coordinator by its own
``socket.socketpair()``: nothing listens, so no other process can reach
the sweep. A worker is handed its session and the grid's points as
``Process`` arguments, inherited through the fork rather than sent, and
closes every inherited socket but its own end, so a dead worker's EOF
is never masked by a live sibling still holding a copy of that worker's
end. Workers exit on the coordinator's ``bye``; termination is only a
backstop.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import socket
from typing import Sequence

from repro.memsim.config import DirectoryState, MachineConfig
from repro.memsim.kernels import ResultColumns
from repro.obs import Recorder, set_default_recorder
from repro.sweep.cluster import protocol
from repro.sweep.cluster.config import ClusterOptions
from repro.sweep.cluster.coordinator import Coordinator
from repro.sweep.cluster.worker import ClusterWorker, Session
from repro.sweep.service import EvaluationService
from repro.workloads.grids import SweepGrid, SweepPoint

__all__ = ["run_grid_columns"]


def _worker_main(
    own: socket.socket,
    inherited: Sequence[socket.socket],
    session: Session,
    points: Sequence[SweepPoint],
) -> None:
    """Entry point of a forked worker process.

    The default recorder is silenced: the worker ships explicit per-item
    snapshots instead, so anything it recorded ambiently would
    double-count after the merge.
    """
    for sock in inherited:
        sock.close()
    set_default_recorder(None)

    async def serve() -> None:
        reader, writer = await protocol.open_link(own)
        await ClusterWorker(reader, writer, session, points).run()

    asyncio.run(serve())


async def _run_cluster(
    grid: SweepGrid,
    points: list[SweepPoint],
    *,
    config: MachineConfig,
    directory: DirectoryState,
    workers: int,
    service: EvaluationService,
    recorder: Recorder,
    options: ClusterOptions,
) -> tuple[list[str], ResultColumns]:
    coordinator = Coordinator(
        grid.name,
        points,
        config=config,
        directory=directory,
        service=service,
        recorder=recorder,
        options=options,
        workers_hint=workers,
    )
    if not coordinator.misses:
        # The parent's caches answer every point: nothing to ship.
        return await coordinator.finish()
    session = Session(
        config=config,
        directory=directory,
        grid_name=grid.name,
        observing=recorder.enabled,
        points_per_item=options.points_per_item,
        heartbeat_seconds=options.heartbeat_seconds,
    )
    pairs = [socket.socketpair() for _ in range(workers)]
    ends = [end for pair in pairs for end in pair]
    ctx = multiprocessing.get_context("fork")
    procs = []
    for _, child in pairs:
        inherited = [end for end in ends if end is not child]
        proc = ctx.Process(
            target=_worker_main,
            args=(child, inherited, session, points),
            daemon=True,
        )
        proc.start()
        procs.append(proc)
    try:
        for _, child in pairs:
            child.close()
        links = [await protocol.open_link(parent) for parent, _ in pairs]
        # Attached together: no link task runs before every worker has one.
        for reader, writer in links:
            coordinator.attach(reader, writer)
        return await coordinator.finish()
    finally:
        for proc in procs:
            proc.join(timeout=5.0)
        for proc in procs:
            if proc.is_alive():  # backstop; workers exit on ``bye``
                proc.terminate()
                proc.join(timeout=5.0)


def run_grid_columns(
    grid: SweepGrid,
    points: list[SweepPoint],
    *,
    config: MachineConfig,
    directory: DirectoryState,
    jobs: int,
    service: EvaluationService,
    recorder: Recorder,
    options: ClusterOptions | None = None,
) -> tuple[list[str], ResultColumns]:
    """Evaluate ``points`` across forked workers into one column batch.

    Bit-identical to per-point evaluation: the coordinator assembles
    returned column rows by global grid index, so chunking, stealing,
    and requeueing cannot reorder or alter anything. Points ``service``
    already holds are answered in this process, tallied exactly as the
    ``vector`` backend tallies them; workers are forked only when some
    point misses. Worker counters and cache statistics fold into
    ``recorder``/``service.stats`` in grid order, plus the ``cluster.*``
    counters for the cluster mechanics themselves. A grid with a failing
    point is re-run in this process and fails exactly as the ``vector``
    backend fails.

    ``jobs`` workers are forked, and at least two: ``jobs=1``, the
    runner's default, forks two.
    """
    if not points:
        return [], ResultColumns()
    return asyncio.run(
        _run_cluster(
            grid,
            points,
            config=config,
            directory=directory,
            workers=max(2, jobs),
            service=service,
            recorder=recorder,
            options=options if options is not None else ClusterOptions(),
        )
    )
