"""Benchmark: the vectorized evaluation kernel against its oracle.

One speedup gate backs the vector backend:

* **Columnar analytic grid >= 5x per-point.** ``evaluate_points_columns``
  on an all-eligible grid amortizes the Python interpretation of the evaluation chain across a
  whole sweep axis *and* keeps the results structure-of-arrays: no
  per-point ``BandwidthResult`` is constructed anywhere on the batch
  path. The old object-list contract capped the win near 3.5-4.5x —
  just building the three result objects per point (counters dict,
  frozen stream, slotted result) cost ~4.7 us even via the ``__new__``
  fast path, an irreducible floor under a ~25-30 us scalar baseline.
  The columnar batch removes that floor, so the gate moved from 3x to
  5x. Bit-identity is still asserted on every host: materializing the
  batch's lazy views reproduces the scalar results exactly.

A second, unconditional check demos the widened eligibility: on a grid
mixing every point family, the fallback fraction — observable via the
``sweep.vector.fallback_count`` counter — is zero, and poisoning the
grid with an unpriceable point moves it to exactly that point.

The speedup gate skips on hosts with < 4 CPU cores (shared/noisy small
hosts flake on wall-clock ratios); the identity asserts run
everywhere, so correctness is never skipped.
"""

from __future__ import annotations

import os
import timeit

import pytest

from repro.errors import GridPointError, TopologyError
from repro.memsim import (
    DaxMode,
    DirectoryState,
    Op,
    PinningPolicy,
    StreamSpec,
    eval_context,
    evaluate,
    paper_config,
)
from repro.memsim.kernels import classify_point, evaluate_points_columns
from repro.memsim.spec import Pattern
from repro.obs import CountersRecorder
from repro.sweep import EvaluationService
from repro.workloads.sequential import sequential_sweep

#: Dense access-size x thread-count axis; all points are vector-eligible.
_DENSE_SIZES = tuple(64 << i for i in range(14))
_DENSE_THREADS = tuple(range(1, 37, 3))

#: Minimum speedup enforced on capable hosts (see module docstring).
_GRID_GATE = 5.0


def _cores() -> int:
    return os.cpu_count() or 1


def _dense_points(context):
    grid = sequential_sweep(
        Op.READ, access_sizes=_DENSE_SIZES, thread_counts=_DENSE_THREADS
    )
    points = [point.streams for point in grid]
    assert all(classify_point(context, p) is None for p in points)
    return points


def test_evaluate_grid_cost(benchmark):
    """Batched cost of a dense all-eligible grid (compare to hot scalar)."""
    context = eval_context(paper_config())
    points = _dense_points(context)
    state = DirectoryState.cold()
    columns = benchmark(lambda: evaluate_points_columns(context, points, state)[0])
    assert len(columns) == len(points)


def test_grid_speedup_over_scalar():
    """Columnar batched evaluation must beat per-point by >= 5x."""
    config = paper_config()
    context = eval_context(config)
    state = DirectoryState.cold()
    points = _dense_points(context)

    def scalar():
        return [
            evaluate(config, streams, state, context=context) for streams in points
        ]

    def batched():
        return evaluate_points_columns(context, points, state)[0]

    expected = scalar()
    # Bit-identical before it may be faster: the batch's lazy views are
    # the scalar results, float for float.
    assert batched().views() == expected
    columns = batched()
    assert columns.total_gbps() == [r.total_gbps for r in expected]
    if _cores() < 4:
        pytest.skip(
            f"speedup gate needs >= 4 CPU cores for stable wall-clock "
            f"ratios (have {_cores()}); identity was still asserted"
        )
    scalar_seconds = min(timeit.repeat(scalar, number=1, repeat=5))
    batched_seconds = min(timeit.repeat(batched, number=1, repeat=5))
    speedup = scalar_seconds / batched_seconds
    assert speedup >= _GRID_GATE, (
        f"evaluate_points_columns speedup {speedup:.2f}x < {_GRID_GATE}x over "
        f"{len(points)} points (scalar {scalar_seconds:.3f}s, "
        f"batched {batched_seconds:.3f}s)"
    )


def _mixed_eligibility_points():
    """One grid spanning every family the kernel prices."""
    points = []
    for threads in (1, 4, 8, 18, 36):
        base = StreamSpec(op=Op.READ, threads=threads)
        points.append((base,))
        points.append((base.with_(pattern=Pattern.RANDOM, access_size=256),))
        points.append((base.with_(issuing_socket=0, target_socket=1),))
        points.append((base.with_(pinning=PinningPolicy.NONE),))
        points.append((base.with_(dax_mode=DaxMode.FSDAX),))
        points.append((base, StreamSpec(op=Op.WRITE, threads=threads)))
    return points


def test_mixed_eligibility_fallback_fraction():
    """Fallback shrinks to exactly the genuinely unpriceable points.

    The first-generation kernel would have sent 5/6 of this grid —
    random, remote, unpinned, fsdax, and multi-stream points — down the
    scalar fallback. Now the fallback fraction, observable through the
    ``sweep.vector.fallback_count`` counter family, is zero on the
    family-diverse grid and moves to exactly the poisoned point when one
    is added.
    """
    config = paper_config()
    context = eval_context(config)
    service = EvaluationService(memoize=False)
    points = _mixed_eligibility_points()
    assert sum(1 for p in points if classify_point(context, p) is None) == len(points)

    recorder = CountersRecorder()
    columns = service.evaluate_grid_columns(config, points, recorder=recorder)
    assert len(columns) == len(points)
    counters = recorder.snapshot()["counters"]
    assert "sweep.vector.fallback_count" not in counters

    # Poison the grid: one point no topology can price. The fallback
    # counter fires (with its reason) before the scalar path raises.
    poisoned = points + [(StreamSpec(op=Op.READ, threads=4, target_socket=9),)]
    assert sum(1 for p in poisoned if classify_point(context, p) is not None) == 1
    recorder = CountersRecorder()
    with pytest.raises(GridPointError) as excinfo:
        service.evaluate_grid_columns(config, poisoned, recorder=recorder)
    assert excinfo.value.index == len(points)
    assert isinstance(excinfo.value.original, TopologyError)
    counters = recorder.snapshot()["counters"]
    assert counters["sweep.vector.fallback_count"] == 1
    assert counters["sweep.vector.fallback.socket_count"] == 1


def test_vector_backend_grid_cost(benchmark, fig3_grid):
    """The Figure 3 sweep through ``backend="vector"``, end to end."""
    from repro.sweep import EvaluationService, SweepRunner

    service = EvaluationService(memoize=False)
    serial = {
        point.label: service.evaluate(paper_config(), point.streams).total_gbps
        for point in fig3_grid
    }
    totals = benchmark(
        lambda: SweepRunner(
            EvaluationService(memoize=False), backend="vector"
        ).totals(fig3_grid)
    )
    assert totals == serial
