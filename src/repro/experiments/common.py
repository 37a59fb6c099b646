"""Shared plumbing for the experiment modules."""

from __future__ import annotations

from functools import lru_cache

from repro.memsim import BandwidthModel, DirectoryState
from repro.sweep import SweepRunner
from repro.workloads.grids import SweepGrid


@lru_cache(maxsize=1)
def _default_model() -> BandwidthModel:
    # One shared façade over the cached paper MachineConfig: every
    # default-invoked experiment reuses the same validated calibration
    # and the same evaluation-cache keys.
    return BandwidthModel()


def model_or_default(model: BandwidthModel | None) -> BandwidthModel:
    return model if model is not None else _default_model()


def evaluate_grid(
    model: BandwidthModel,
    grid: SweepGrid,
    *,
    directory: DirectoryState | None = None,
    jobs: int = 1,
    backend: str = "vector",
) -> dict[str, float]:
    """Evaluate every sweep point; returns {label: total GB/s}.

    Points are evaluated against an explicit warm
    :class:`DirectoryState` (not by mutating the model), so far-access
    points reflect steady-state behaviour and the call leaves no state
    behind; experiments that specifically study the cold path (Fig. 5)
    pass their own state values. Results stay columnar end-to-end — the
    totals are read straight off the batch, no per-point result object
    exists anywhere. ``backend="cluster"`` (with ``jobs`` local workers)
    fans points out across worker processes instead, bit-identically.
    """
    if directory is None:
        directory = DirectoryState.warm(model.topology)
    runner = SweepRunner(model.service, jobs=jobs, backend=backend)
    return runner.totals(grid, config=model.config, directory=directory)


def curves_by(
    values: dict[str, float], grid: SweepGrid, outer: str, inner: str
) -> dict[str, dict[str, float]]:
    """Regroup flat sweep values into one series per ``outer`` parameter.

    ``outer``/``inner`` name keys of each point's ``params``; the result
    maps ``str(outer_value)`` to ``{str(inner_value): GB/s}``.
    """
    series: dict[str, dict[str, float]] = {}
    for point in grid:
        outer_value = str(point.params[outer])
        inner_value = str(point.params[inner])
        series.setdefault(outer_value, {})[inner_value] = values[point.label]
    return series
