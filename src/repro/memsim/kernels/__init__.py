"""Vectorized evaluation kernels: batched sweeps over the pure core.

:func:`evaluate_points_columns` (:mod:`repro.memsim.kernels.analytic`)
is a structure-of-arrays batched analytic evaluator producing a
:class:`ResultColumns` batch natively, for points that
:func:`classify_point` finds eligible. One
:class:`~repro.memsim.context.EvalContext` is shared across a whole
sweep axis and every float is produced by the *same IEEE-754 operation
in the same order* as per-point
:func:`repro.memsim.evaluation.evaluate`, so results are **bit
identical** — the sweep service can mix cached per-point results with
batched computes freely. Grids are evaluated through the one batched
entry point that caches and routes ineligible points to the scalar
evaluator,
:meth:`repro.sweep.service.EvaluationService.evaluate_grid_columns`.
Callers that want per-point objects take lazy views off the batch
(:meth:`ResultColumns.views`). The discrete-event engine has no batched
counterpart: its scalar simulator
(:mod:`repro.memsim.engine.simulator`) stays the cross-check oracle.

:class:`ResultColumns` itself is imported eagerly (it is pure stdlib);
the kernels are resolved lazily via :pep:`562` so that consumers which
only ship or store column blocks — the sweep cache, the cluster wire —
never pull NumPy onto their import path.
"""

from __future__ import annotations

from typing import Any

from repro.memsim.kernels.columns import COUNTER_COLUMNS, ResultColumns

__all__ = [
    "COUNTER_COLUMNS",
    "FALLBACK_REASONS",
    "ResultColumns",
    "classify_point",
    "evaluate_points_columns",
]

_ANALYTIC = frozenset({
    "FALLBACK_REASONS",
    "classify_point",
    "evaluate_points_columns",
})


def __getattr__(name: str) -> Any:
    if name in _ANALYTIC:
        from repro.memsim.kernels import analytic

        return getattr(analytic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(__all__)
