"""Sweep service: memoized, batched evaluation of the pure memsim core.

Layering (see DESIGN.md §4):

* :mod:`repro.memsim.evaluation` supplies the pure function
  ``evaluate(MachineConfig, streams, DirectoryState)``;
* :class:`EvaluationService` wraps it in a content-keyed memo cache and
  an optional on-disk cache (:class:`~repro.sweep.cache.DiskCache`);
* :class:`SweepRunner` evaluates whole grids into one column batch,
  either in-process through the service's batched kernel path
  (``backend="vector"``, the default) or by shipping the service's
  cache misses to a worker cluster with work-stealing
  (``backend="cluster"``, :mod:`repro.sweep.cluster`) — bit-identical
  either way, rows and cache tallies alike, rows in grid order.

Everything above this package — experiments, the SSB cost model, the
core advisor/optimizer — evaluates bandwidth through here.
"""

from repro.sweep.cache import CacheStats, DiskCache, MemoCache
from repro.sweep.runner import BACKENDS, SweepRunner
from repro.sweep.service import (
    EvaluationService,
    GridPointError,
    default_service,
    request_key,
    set_default_service,
    stream_gbps,
)

__all__ = [
    "BACKENDS",
    "CacheStats",
    "DiskCache",
    "EvaluationService",
    "GridPointError",
    "MemoCache",
    "SweepRunner",
    "default_service",
    "request_key",
    "set_default_service",
    "stream_gbps",
]
