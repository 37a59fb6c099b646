"""Shared plumbing for the experiment modules."""

from __future__ import annotations

from repro.memsim import DirectoryState, MachineConfig
from repro.sweep import SweepRunner
from repro.workloads.grids import SweepGrid


def evaluate_grid(config: MachineConfig, grid: SweepGrid) -> dict[str, float]:
    """Evaluate every sweep point; returns {label: total GB/s}.

    Points are priced in process, in one batched kernel pass, against
    an explicit warm :class:`DirectoryState`, so far-access points reflect
    steady-state behaviour (Fig. 5, which studies the cold path, threads
    its own states through the service instead). Results stay columnar
    end-to-end — the totals are read straight off the batch, no
    per-point result object exists anywhere.
    """
    directory = DirectoryState.warm(config.topology)
    return SweepRunner().totals(grid, config=config, directory=directory)


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
