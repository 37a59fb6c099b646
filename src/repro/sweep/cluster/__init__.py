"""Sharded cluster sweep backend with work-stealing.

``backend="cluster"`` on :class:`~repro.sweep.SweepRunner` fans a grid
out across worker processes the coordinator forks for the sweep, each
joined to it by its own socketpair, while staying bit-identical to the
in-process ``vector`` backend. No worker outlives its sweep and nothing
listens on a port. The package splits along the wire:

* :mod:`~repro.sweep.cluster.protocol` — newline-JSON frames (reusing
  the :mod:`repro.serve` framing): chunks of grid indices one way, rows
  in the disk cache's canonical column encoding the other (no
  pickling).
* :mod:`~repro.sweep.cluster.coordinator` — resolving every point
  through the parent service's caches (the cluster's only cache),
  sharding the misses by content hash, chunk dispatch, work-stealing,
  heartbeat timeouts and requeueing, and re-running a grid with a
  failing point in process, the ``vector`` way.
* :mod:`~repro.sweep.cluster.worker` — stateless evaluation of the
  session and points given at fork, through a worker-local,
  non-memoizing :class:`~repro.sweep.service.EvaluationService`; a
  worker keeps no cache.
* :mod:`~repro.sweep.cluster.backend` — the synchronous entry point the
  runner dispatches to: it forks the workers and runs the coordinator.
* :mod:`~repro.sweep.cluster.config` — :class:`ClusterOptions`.
"""

from repro.sweep.cluster.backend import run_grid_columns
from repro.sweep.cluster.config import ClusterOptions
from repro.sweep.cluster.coordinator import Coordinator
from repro.sweep.cluster.worker import ClusterWorker, Session

__all__ = [
    "ClusterOptions",
    "ClusterWorker",
    "Coordinator",
    "Session",
    "run_grid_columns",
]
