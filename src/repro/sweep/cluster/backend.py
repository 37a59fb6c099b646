"""Synchronous entry points for ``backend="cluster"`` sweeps.

:func:`run_grid_columns` fans a grid out across *cluster workers*: either
local worker processes spawned around the coordinator, or standing
``repro worker`` peers named by
:attr:`~repro.sweep.cluster.config.ClusterOptions.connect`. Its result
is bit-identical to the in-process ``vector`` backend's.

Local-spawn choreography matters: the listening socket is bound (port 0)
**before** forking, so the child processes are handed a concrete
``host:port`` and there is no race between the coordinator's listener
coming up and the first worker dialing in. Workers exit on the
coordinator's ``bye``; termination is only a backstop.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import socket

from repro.memsim.config import DirectoryState, MachineConfig
from repro.memsim.kernels import ResultColumns
from repro.obs import Recorder, set_default_recorder
from repro.sweep.cluster.config import ClusterOptions, default_cluster_options
from repro.sweep.cluster.coordinator import Coordinator
from repro.sweep.service import EvaluationService
from repro.workloads.grids import SweepGrid, SweepPoint

__all__ = ["run_grid_columns"]


def _local_worker_main(host: str, port: int) -> None:
    """Entry point of a spawned local worker process.

    Module-level so it pickles under the ``spawn`` start method. The
    default recorder is silenced: the worker ships explicit per-item
    snapshots instead, so anything it recorded ambiently would
    double-count after the merge.
    """
    set_default_recorder(None)
    from repro.sweep.cluster.worker import connect_worker

    asyncio.run(connect_worker(host, port))


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
    procs: list[multiprocessing.process.BaseProcess] = []
    if options.connect:
        await coordinator.start("127.0.0.1", 0)
        for host, port in options.connect:
            await coordinator.dial(host, port)
    else:
        lsock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        lsock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        lsock.bind(("127.0.0.1", 0))
        host, port = lsock.getsockname()[:2]
        await coordinator.start(sock=lsock)
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        for _ in range(workers):
            proc = ctx.Process(
                target=_local_worker_main, args=(host, port), daemon=True
            )
            proc.start()
            procs.append(proc)
    try:
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
    """Evaluate ``points`` across a worker cluster into one column batch.

    Bit-identical to per-point evaluation: the coordinator assembles
    returned column rows by global grid index, so chunking, stealing,
    and requeueing cannot reorder or alter anything. Points ``service``
    already holds are answered in this process, tallied exactly as the
    ``vector`` backend tallies them; workers are started only when some
    point misses. Worker counters and cache statistics fold into
    ``recorder``/``service.stats`` in grid order, plus the ``cluster.*``
    counters for the cluster mechanics themselves.

    ``jobs`` (when > 1) overrides ``options.workers`` for the local
    worker count; with ``options.connect`` set, exactly those standing
    peers are used instead and nothing is spawned.
    """
    if options is None:
        options = default_cluster_options()
    if not points:
        return [], ResultColumns()
    if options.connect:
        workers = len(options.connect)
    else:
        workers = jobs if jobs > 1 else options.workers
    return asyncio.run(
        _run_cluster(
            grid,
            points,
            config=config,
            directory=directory,
            workers=workers,
            service=service,
            recorder=recorder,
            options=options,
        )
    )

