"""Sweep execution with deterministic assembly.

A :class:`SweepRunner` evaluates every point of a
:class:`~repro.workloads.grids.SweepGrid` through an
:class:`~repro.sweep.EvaluationService` into one
:class:`~repro.memsim.kernels.ResultColumns` batch, rows in grid order.
Every point is evaluated against the same immutable inputs, so both
backends are bit-identical to a per-point :func:`repro.memsim.evaluate`
loop regardless of completion order.

Two backends:

* ``"vector"`` (default) — route the whole grid through
  :meth:`~repro.sweep.service.EvaluationService.evaluate_grid_columns`,
  which computes cache-missing points in one batched NumPy pass
  (:mod:`repro.memsim.kernels`), in this process.
* ``"cluster"`` — a :mod:`repro.sweep.cluster` coordinator/worker
  cluster: the coordinator answers every point the service's caches
  hold, exactly as the vector backend does, and shards only the misses
  by content hash across ``jobs`` (at least two) worker processes
  forked for the sweep, with work-stealing for stragglers and
  heartbeat-timeout requeueing for dead workers. Rows are assembled by
  global grid index.

``jobs`` is the cluster's worker count only; the vector backend
runs on one core, so ``jobs > 1`` without ``backend="cluster"`` raises
:class:`~repro.errors.ConfigurationError`. An unknown ``backend`` name
raises :class:`~repro.errors.BackendError` naming the valid set. A
failing point raises :class:`~repro.errors.GridPointError` naming the
grid and the point label, with the original exception chained.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.errors import BackendError, ConfigurationError
from repro.memsim.config import DirectoryState, MachineConfig, paper_config
from repro.obs import Recorder, default_recorder
from repro.sweep.service import EvaluationService, default_service
from repro.workloads.grids import SweepGrid

if TYPE_CHECKING:
    from repro.memsim.kernels import ResultColumns

#: Recognised ``SweepRunner`` backends, in documentation order.
BACKENDS = ("vector", "cluster")


class SweepRunner:
    """Evaluates sweep grids into column batches through a shared service.

    Parameters
    ----------
    service:
        Evaluation service to route points through; defaults to the
        process-wide shared service.
    jobs:
        Cluster workers to fork; ``1`` (default) forks two. Only
        ``backend="cluster"`` accepts ``jobs > 1``.
    backend:
        One of :data:`BACKENDS` (``"vector"`` is the default) — see the
        module docstring. Both produce bit-identical results; anything
        else raises :class:`~repro.errors.BackendError`.
    recorder:
        Observability sink for counters and batch wall time; defaults to
        the process-wide :func:`repro.obs.default_recorder`.
    """

    def __init__(
        self,
        service: EvaluationService | None = None,
        *,
        jobs: int = 1,
        backend: str = "vector",
        recorder: Recorder | None = None,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if backend not in BACKENDS:
            raise BackendError(backend, BACKENDS)
        if jobs > 1 and backend != "cluster":
            raise ConfigurationError(
                f'jobs={jobs} needs backend="cluster"; the "{backend}" '
                "backend evaluates in-process on one core"
            )
        self._service = service
        self._recorder = recorder
        self.jobs = jobs
        self.backend = backend

    @property
    def service(self) -> EvaluationService:
        return self._service if self._service is not None else default_service()

    def run_columns(
        self,
        grid: SweepGrid,
        *,
        config: MachineConfig | None = None,
        directory: DirectoryState | None = None,
    ) -> "tuple[list[str], ResultColumns]":
        """Evaluate every point into one column batch, in grid order.

        Returns ``(labels, columns)``. Every point sees the same
        ``directory`` (default cold) — a sweep is a set of independent
        what-if evaluations, not a sequence, so no point's warm-up leaks
        into another. No per-point result object is materialized; call
        ``columns.views()`` for objects.

        A failing point raises
        :class:`~repro.errors.GridPointError` naming the grid and point
        label and carrying the partial batch of every point completed
        before the failure.
        """
        cfg = config if config is not None else paper_config()
        state = directory if directory is not None else DirectoryState.cold()
        points = list(grid)
        rec = self._recorder if self._recorder is not None else default_recorder()

        if self.backend == "cluster":
            # Imported lazily: only cluster runs pay for the
            # asyncio/multiprocessing machinery.
            from repro.sweep import cluster

            return cluster.run_grid_columns(
                grid,
                points,
                config=cfg,
                directory=state,
                jobs=self.jobs,
                service=self.service,
                recorder=rec,
            )

        labels = [point.label for point in points]
        observing = rec.enabled
        started = time.perf_counter() if observing else 0.0
        # GridPointError propagates as raised: the service is passed the
        # labels and grid name, so its message already names the point.
        columns = self.service.evaluate_grid_columns(
            cfg,
            [point.streams for point in points],
            state,
            recorder=rec,
            labels=labels,
            grid_name=grid.name,
        )
        if observing and points:
            # Wall time is inherently nondeterministic, hence a histogram
            # observation: CountersRecorder keeps only a summary and
            # TraceRecorder drops observations unless asked to record them.
            rec.incr("sweep.points_count", len(points))
            rec.observe("sweep.batch.wall_seconds", time.perf_counter() - started)
        return labels, columns

    def totals(
        self,
        grid: SweepGrid,
        *,
        config: MachineConfig | None = None,
        directory: DirectoryState | None = None,
    ) -> dict[str, float]:
        """Total bandwidth per point in decimal GB/s, ``{label: GB/s}``.

        Read straight off the column batch — the common consumer path
        (experiments, the SSB cost model) never materializes a result
        object.
        """
        labels, columns = self.run_columns(grid, config=config, directory=directory)
        return dict(zip(labels, columns.total_gbps()))
