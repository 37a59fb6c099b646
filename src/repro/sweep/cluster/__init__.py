"""Sharded cluster sweep backend with work-stealing.

``backend="cluster"`` on :class:`~repro.sweep.SweepRunner` fans a grid
out across worker processes — spawned locally around the coordinator, or
standing ``repro worker`` peers reached over TCP — while staying
bit-identical to the in-process ``vector`` backend. The package splits along the wire:

* :mod:`~repro.sweep.cluster.protocol` — newline-JSON frames (reusing
  the :mod:`repro.serve` framing) carrying the disk cache's canonical
  JSON encoding of configs, streams and column blocks (no pickling).
* :mod:`~repro.sweep.cluster.coordinator` — resolving every point
  through the parent service's caches (the cluster's only cache),
  sharding the misses by content hash, chunk dispatch, work-stealing,
  heartbeat timeouts and requeueing, and re-running a grid with a
  failing point in process, the ``vector`` way.
* :mod:`~repro.sweep.cluster.worker` — stateless per-connection
  evaluation through a worker-local, non-memoizing
  :class:`~repro.sweep.service.EvaluationService`; a worker keeps no
  cache.
* :mod:`~repro.sweep.cluster.backend` — the synchronous entry points the
  runner dispatches to.
* :mod:`~repro.sweep.cluster.config` — :class:`ClusterOptions` and the
  process-wide default the CLI installs.
"""

from repro.sweep.cluster.backend import run_grid_columns
from repro.sweep.cluster.config import (
    ClusterOptions,
    default_cluster_options,
    parse_endpoint,
    set_default_cluster_options,
)
from repro.sweep.cluster.coordinator import Coordinator
from repro.sweep.cluster.worker import ClusterWorker, connect_worker, serve_worker

__all__ = [
    "ClusterOptions",
    "ClusterWorker",
    "Coordinator",
    "connect_worker",
    "default_cluster_options",
    "parse_endpoint",
    "run_grid_columns",
    "serve_worker",
    "set_default_cluster_options",
]
