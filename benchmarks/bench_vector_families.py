"""Benchmark: the widened vector fast path on formerly-fallback grids.

The first-generation batched kernel priced only plain pinned
near-socket sequential points, so the figure grids built from the
random, remote, unpinned, fsdax, and mixed families — Fig. 4/9
(pinning), Fig. 5/10 (NUMA locality), Fig. 11 (mixed readers/writers),
Fig. 12/13 (random access), and the daxmode study — ran entirely on the
scalar fallback of the vector backend. Now that every family the
scalar evaluator can price is vectorized, each of those grids must beat
per-point evaluation by >= 3x (a lower gate than the dense sequential
axis' 5x: family grids are smaller). The ``two_stream`` grid holds the
``sweep`` benchmark grid's two-stream points (Figs. 6, 10 and 11: near
and far readers on one target, both sockets reading far, readers beside
writers), whose interactions the kernel prices as pairs of flat
positions.

Bit-identity is asserted on every run, on every host: the batch's lazy
views must reproduce the scalar results exactly before any clock is
read. Speedup gates skip on hosts with < 4 CPU cores (shared/noisy
small hosts flake on wall-clock ratios); identity never skips.
"""

from __future__ import annotations

import os
import random
import timeit

import pytest

from repro.memsim import (
    DaxMode,
    DirectoryState,
    MediaKind,
    Op,
    PinningPolicy,
    eval_context,
    evaluate,
    paper_config,
)
from repro.memsim.kernels import classify_point, evaluate_points_columns
from repro.memsim.spec import Layout, StreamSpec
from repro.workloads.mixed import mixed_grid
from repro.workloads.random_ import random_sweep
from repro.workloads.sequential import numa_locality_sweep, pinning_sweep

#: Minimum speedup per family grid on capable hosts.
_FAMILY_GATE = 3.0

#: Densified thread axes: the paper grids are small (12-24 points);
#: widening the thread axis keeps the wall-clock ratio stable without
#: changing the point families being exercised.
_DENSE_THREADS = tuple(range(1, 37))


def _cores() -> int:
    return os.cpu_count() or 1


def _fsdax_grid_points():
    """The daxmode study's shape: fsdax reads/writes across thread counts."""
    points = []
    for op in (Op.READ, Op.WRITE):
        for threads in _DENSE_THREADS:
            for prefaulted in (False, True):
                points.append(
                    (
                        StreamSpec(
                            op=op,
                            threads=threads,
                            access_size=4096,
                            layout=Layout.INDIVIDUAL,
                            dax_mode=DaxMode.FSDAX,
                            prefaulted=prefaulted,
                        ),
                    )
                )
    return points


def _two_stream(op, issuing, target, media):
    return StreamSpec(
        op=op,
        threads=1,
        media=media,
        pinning=PinningPolicy.NUMA_REGION,
        issuing_socket=issuing,
        target_socket=target,
    )


#: The two-stream shapes of perfbench's ``sweep`` grid (seed 2021) and
#: its point count of each, named by the interactions a point of the
#: shape is checked for.
_TWO_STREAM_SHAPES = (
    (  # prefetch + multi-issuer + far: near and far readers on one target
        (_two_stream(Op.READ, 0, 0, MediaKind.DRAM), _two_stream(Op.READ, 1, 0, MediaKind.DRAM)),
        127,
    ),
    (  # multi-issuer + far: near and far writers on one target
        (_two_stream(Op.WRITE, 0, 0, MediaKind.PMEM), _two_stream(Op.WRITE, 1, 0, MediaKind.PMEM)),
        118,
    ),
    (  # prefetch + multi-issuer: both sockets reading near
        (_two_stream(Op.READ, 0, 0, MediaKind.DRAM), _two_stream(Op.READ, 1, 1, MediaKind.DRAM)),
        105,
    ),
    (  # prefetch + multi-issuer + far-far: both sockets reading far
        (_two_stream(Op.READ, 0, 1, MediaKind.PMEM), _two_stream(Op.READ, 1, 0, MediaKind.PMEM)),
        104,
    ),
    (  # mixed-only: a writer beside a reader
        (_two_stream(Op.WRITE, 0, 0, MediaKind.PMEM), _two_stream(Op.READ, 0, 0, MediaKind.PMEM)),
        103,
    ),
)


def _two_stream_points():
    """The sweep grid's two-stream shapes at its counts, each stream
    with a seeded thread count (1-36) and access size (1-8 KiB)."""
    rng = random.Random(2021)
    return [
        tuple(
            spec.with_(threads=rng.randint(1, 36), access_size=64 * rng.randint(16, 128))
            for spec in shape
        )
        for shape, count in _TWO_STREAM_SHAPES
        for _ in range(count)
    ]


def _family_points():
    return {
        "pinning_fig04": [
            p.streams for p in pinning_sweep(Op.READ, thread_counts=_DENSE_THREADS)
        ],
        "numa_fig05": [
            p.streams
            for p in numa_locality_sweep(Op.READ, thread_counts=_DENSE_THREADS)
        ],
        "mixed_fig11": [
            p.streams
            for p in mixed_grid(
                write_counts=(1, 2, 3, 4, 5, 6),
                read_counts=(1, 2, 4, 6, 8, 10, 12, 16, 18, 22, 26, 30),
            )
        ],
        "random_fig12": [
            p.streams for p in random_sweep(Op.READ, thread_counts=_DENSE_THREADS)
        ],
        "fsdax_daxmode": _fsdax_grid_points(),
        "two_stream": _two_stream_points(),
    }


FAMILY_GRIDS = _family_points()


@pytest.mark.parametrize("family", sorted(FAMILY_GRIDS))
def test_family_grid_cost(benchmark, family):
    """Batched cost of one formerly-fallback figure grid."""
    context = eval_context(paper_config())
    points = FAMILY_GRIDS[family]
    assert all(classify_point(context, p) is None for p in points)
    state = DirectoryState.cold()
    columns = benchmark(lambda: evaluate_points_columns(context, points, state)[0])
    assert len(columns) == len(points)


@pytest.mark.parametrize("family", sorted(FAMILY_GRIDS))
def test_family_speedup_over_scalar(family):
    """Each formerly-fallback figure grid must beat per-point by >= 3x."""
    config = paper_config()
    context = eval_context(config)
    state = DirectoryState.cold()
    points = FAMILY_GRIDS[family]
    assert all(classify_point(context, p) is None for p in points)

    def scalar():
        return [
            evaluate(config, streams, state, context=context) for streams in points
        ]

    def batched():
        return evaluate_points_columns(context, points, state)[0]

    # Bit-identical before it may be faster.
    expected = scalar()
    assert batched().views() == expected
    assert batched().total_gbps() == [r.total_gbps for r in expected]
    if _cores() < 4:
        pytest.skip(
            f"speedup gate needs >= 4 CPU cores for stable wall-clock "
            f"ratios (have {_cores()}); identity was still asserted"
        )
    scalar_seconds = min(timeit.repeat(scalar, number=1, repeat=5))
    batched_seconds = min(timeit.repeat(batched, number=1, repeat=5))
    speedup = scalar_seconds / batched_seconds
    assert speedup >= _FAMILY_GATE, (
        f"{family}: vector speedup {speedup:.2f}x < {_FAMILY_GATE}x over "
        f"{len(points)} points (scalar {scalar_seconds:.3f}s, "
        f"batched {batched_seconds:.3f}s)"
    )
