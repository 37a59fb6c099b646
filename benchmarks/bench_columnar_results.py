"""Benchmark: the columnar result path, kernel to cache to consumer.

The SoA refactor's whole claim is that a sweep's results never exist as
per-point objects between the kernel and the consumer. These benches
time the three legs that claim rides on, on the shared Figure 3 grid:

* ``run_columns`` through the vector backend — the end-to-end producer
  path (kernel batch -> service assembly -> runner), totals read
  straight off the batch;
* the v2 disk-cache round trip — one content-addressed block write for
  the whole grid, then per-digest ``get_ref`` lookups resolving into
  the shared in-memory block;
* the wire codec — the cost the cluster wire pays to ship 1000 rows of
  results back to the coordinator as one canonical-JSON rows payload:
  the worker's encode (:func:`repro.sweep.cache.columns_to_payload`
  without the spec column) and the coordinator's decode with the specs
  it shipped (:func:`repro.sweep.cluster.protocol.rows`).

Each bench asserts the columnar values against the materialized views
(same floats), so the smoke run doubles as an identity check.
"""

from __future__ import annotations

import json

from repro.memsim import Op, StreamSpec, paper_config
from repro.memsim.kernels import ResultColumns
from repro.sweep import DiskCache, EvaluationService, SweepRunner
from repro.sweep.cache import columns_to_payload, request_digest
from repro.sweep.cluster import protocol


def _columns_for(grid) -> tuple[list[str], ResultColumns]:
    runner = SweepRunner(EvaluationService(memoize=False), backend="vector")
    return runner.run_columns(grid)


def test_run_columns_end_to_end(benchmark, fig3_grid):
    """Columnar sweep of the Figure 3 grid, no per-point objects."""
    labels, columns = benchmark(lambda: _columns_for(fig3_grid))
    assert len(labels) == len(columns)
    totals = columns.total_gbps()
    assert totals == [view.total_gbps for view in columns.views()]
    benchmark.extra_info["points"] = len(labels)
    benchmark.extra_info["peak_gbps"] = round(max(totals), 3)


def test_disk_cache_block_round_trip(benchmark, fig3_grid, tmp_path):
    """One block write + per-digest ref lookups for the whole grid."""
    config = paper_config()
    points = [point.streams for point in fig3_grid]
    service = EvaluationService(disk_cache=DiskCache(tmp_path / "seed"))
    seeded = service.evaluate_grid_columns(config, points)
    digests = [
        request_digest(config, streams, seeded.directory_after[i].restrict(frozenset()))
        for i, streams in enumerate(points)
    ]

    def round_trip() -> int:
        cache = DiskCache(tmp_path / "seed")  # cold in-memory block map
        refs = [cache.get_ref(digest) for digest in digests]
        assert all(ref is not None for ref in refs)
        return len({id(columns) for columns, _ in refs})

    blocks = benchmark(round_trip)
    # Every ref resolves into the same shared block, loaded once.
    assert blocks == 1
    benchmark.extra_info["points"] = len(points)


#: Rows in the wire codec bench: one cluster workload grid's worth.
WIRE_ROWS = 1000


def _shipped_points() -> list[tuple[StreamSpec, ...]]:
    """WIRE_ROWS distinct single-stream points, near and far, read and write."""
    return [
        (StreamSpec(
            op=Op.READ if i % 4 else Op.WRITE,
            threads=1 + i % 36,
            access_size=64 * (1 + i // 36),
            target_socket=i % 2,
        ),)
        for i in range(WIRE_ROWS)
    ]


def _result_frame(columns: ResultColumns) -> bytes:
    """The worker's side: a ``result`` frame's line with the rows payload."""
    return protocol.dump_line(
        {"kind": "result", "rows": columns_to_payload(columns, specs=False)}
    )


def test_column_block_wire_codec(benchmark):
    """Ship 1000 rows across the cluster wire as JSON and back."""
    points = _shipped_points()
    columns = EvaluationService(memoize=False).evaluate_grid_columns(
        paper_config(), points
    )

    def ship() -> ResultColumns:
        frame = json.loads(_result_frame(columns))
        return protocol.rows(frame, points)

    shipped = benchmark(ship)
    assert shipped == columns
    assert shipped.total_gbps() == columns.total_gbps()
    benchmark.extra_info["rows"] = len(columns)
    benchmark.extra_info["frame_bytes"] = len(_result_frame(columns))
