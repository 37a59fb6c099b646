"""Property tests for the columnar result path (ResultColumns).

The SoA refactor's contract, pinned here with seeded random grids:

* lazy views materialized off a column batch are **bit-identical** to
  scalar :meth:`EvaluationService.evaluate` results, on both backends
  (in-process vector and cluster);
* recorder snapshots of a columnar run match the per-point path;
* batches round-trip the v2 disk-cache payload (which is also the
  cluster wire form) and pickling float-for-float (the view cache never
  travels), and a mutated payload decodes or raises ``SchemaError``;
* :class:`~repro.errors.GridPointError` names the failing point and
  carries the partial batch, inline and across the cluster.
"""

import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GridPointError, SchemaError
from repro.memsim import DirectoryState, Op, StreamSpec, paper_config
from repro.memsim.kernels import COUNTER_COLUMNS, ResultColumns
from repro.obs import CountersRecorder
from repro.sweep import DiskCache, EvaluationService, SweepRunner
from repro.sweep.cache import (
    _canonical,
    block_digest,
    columns_from_payload,
    columns_to_payload,
)
from repro.workloads.grids import SweepGrid, SweepPoint

from tests.jsonfuzz import mutated

BACKENDS = [
    pytest.param("vector", 1, id="vector"),
    pytest.param("cluster", 2, id="cluster"),
]


def random_grid(seed: int, n: int = 12) -> SweepGrid:
    """Seeded mix of eligible near points and fallback far points."""
    rng = random.Random(seed)
    points = []
    for i in range(n):
        op = rng.choice((Op.READ, Op.WRITE))
        spec = StreamSpec(
            op=op,
            threads=rng.choice((1, 2, 4, 8, 18, 36)),
            access_size=rng.choice((64, 256, 4096, 65536)),
            issuing_socket=0,
            target_socket=1 if rng.random() < 0.3 else 0,
        )
        points.append(
            SweepPoint(label=f"p{i}-{op.value}", params={"i": i}, streams=(spec,))
        )
    return SweepGrid(name=f"random-{seed}", points=tuple(points))


def serial_columns(grid, recorder=None) -> ResultColumns:
    """The oracle: one uncached ``evaluate`` call per point, columnized."""
    oracle = EvaluationService(memoize=False)
    config = paper_config()
    return ResultColumns.from_results(
        oracle.evaluate(config, point.streams, recorder=recorder) for point in grid
    )


def results_identical(a, b) -> bool:
    return (
        a.total_gbps == b.total_gbps
        and [(s.spec, s.gbps, s.solo_gbps, s.notes) for s in a.streams]
        == [(s.spec, s.gbps, s.solo_gbps, s.notes) for s in b.streams]
        and a.counters == b.counters
        and a.directory_after == b.directory_after
    )


class TestBitIdentityAcrossBackends:
    @pytest.mark.parametrize("backend,jobs", BACKENDS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_views_match_scalar_evaluate(self, backend, jobs, seed):
        grid = random_grid(seed)
        config = paper_config()
        labels, columns = SweepRunner(
            EvaluationService(memoize=False), backend=backend, jobs=jobs
        ).run_columns(grid)
        assert labels == [point.label for point in grid]
        assert len(columns) == len(grid)
        oracle = EvaluationService(memoize=False)
        for i, point in enumerate(grid):
            expected = oracle.evaluate(config, point.streams)
            assert results_identical(columns.view(i), expected), point.label
            assert columns.point_total_gbps(i) == expected.total_gbps

    @pytest.mark.parametrize("backend,jobs", BACKENDS)
    def test_batches_equal_across_backends(self, backend, jobs):
        grid = random_grid(7)
        reference = serial_columns(grid)
        _, columns = SweepRunner(
            EvaluationService(memoize=False), backend=backend, jobs=jobs
        ).run_columns(grid)
        assert columns == reference

    def test_warm_directory_identity(self):
        config = paper_config()
        warm = DirectoryState.warm(config.topology)
        grid = random_grid(3)
        _, columns = SweepRunner(
            EvaluationService(memoize=False), backend="vector"
        ).run_columns(grid, config=config, directory=warm)
        oracle = EvaluationService(memoize=False)
        for i, point in enumerate(grid):
            expected = oracle.evaluate(config, point.streams, warm)
            assert results_identical(columns.view(i), expected), point.label


class TestRecorderParity:
    def test_columnar_snapshot_matches_serial(self):
        grid = random_grid(11)
        serial_rec, column_rec = CountersRecorder(), CountersRecorder()
        serial_columns(grid, recorder=serial_rec)
        SweepRunner(
            EvaluationService(memoize=False), backend="vector", recorder=column_rec
        ).run_columns(grid)
        serial_snap, column_snap = serial_rec.snapshot(), column_rec.snapshot()
        expected = dict(serial_snap["counters"], **{"sweep.points_count": len(grid)})
        assert column_snap["counters"] == expected
        assert serial_snap["events"] == column_snap["events"]
        assert column_snap["histograms"]["sweep.batch.wall_seconds"]["count"] == 1


class TestDiskCacheRoundTrip:
    def test_payload_round_trips_bit_identically(self):
        grid = random_grid(5)
        _, columns = SweepRunner(
            EvaluationService(memoize=False), backend="vector"
        ).run_columns(grid)
        digests = [f"d{i:02d}" for i in range(len(columns))]
        payload = columns_to_payload(columns, digests)
        # _canonical is exactly what DiskCache writes to the block file.
        wire = json.loads(_canonical(payload))
        assert wire["digests"] == digests
        decoded = columns_from_payload(wire)
        assert decoded == columns
        assert decoded.total_gbps() == columns.total_gbps()

    def test_v2_cache_serves_bit_identical_rows(self, tmp_path):
        grid = random_grid(9)
        config = paper_config()
        points = [point.streams for point in grid]
        first = EvaluationService(disk_cache=DiskCache(tmp_path))
        original = first.evaluate_grid_columns(config, points)
        second = EvaluationService(disk_cache=DiskCache(tmp_path))
        restored = second.evaluate_grid_columns(config, points)
        assert second.stats.misses == 0
        assert restored == original

    def test_concurrent_shard_merges_lose_no_entries(self, tmp_path):
        """Writers merging one shard union entries instead of racing.

        Regression: shards are shared files, and an unlocked
        read-merge-write let the last of two concurrent writers (say,
        cluster workers sharing a cache directory) silently drop the
        other's new entries — a warm rerun would then miss those points.
        """
        import threading

        grid = random_grid(4, n=4)
        _, columns = SweepRunner(
            EvaluationService(memoize=False), backend="vector"
        ).run_columns(grid)
        cache = DiskCache(tmp_path)
        # All digests share one shard prefix, the contended case.
        digests = [f"aa{worker:02d}{put:02d}" for worker in range(4) for put in range(8)]

        def hammer(worker: int) -> None:
            for put in range(8):
                row = (worker + put) % len(columns)
                one = ResultColumns()
                one.append_from(columns, row)
                cache.put_columns([f"aa{worker:02d}{put:02d}"], one)

        threads = [
            threading.Thread(target=hammer, args=(worker,)) for worker in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        fresh = DiskCache(tmp_path)
        missing = [digest for digest in digests if fresh.get_ref(digest) is None]
        assert missing == []

    def test_block_digest_is_order_sensitive(self):
        assert block_digest(["a", "b"]) != block_digest(["b", "a"])
        assert block_digest(["a", "b"]) == block_digest(["a", "b"])


class TestPayloadDecodeProperty:
    _PAYLOAD = columns_to_payload(
        EvaluationService(memoize=False).evaluate_grid_columns(
            paper_config(),
            [point.streams for point in random_grid(7, n=3)],
            DirectoryState(frozenset({(0, 1)})),
        ),
        [f"{i:064x}" for i in range(3)],
    )

    @given(payload=mutated(st.just(_PAYLOAD)))
    @settings(max_examples=300, deadline=None)
    def test_mutated_payload_decodes_or_is_a_schema_error(self, payload):
        """Any one value replaced by arbitrary JSON: a batch or SchemaError."""
        try:
            columns = columns_from_payload(payload)
        except SchemaError:
            return
        assert len(columns.specs) == len(columns.gbps) == columns.offsets[-1]
        assert len(columns.directory_after) == len(columns)


class TestPickleBoundary:
    def test_round_trip_drops_the_view_cache(self):
        grid = random_grid(2, n=6)
        _, columns = SweepRunner(
            EvaluationService(memoize=False), backend="vector"
        ).run_columns(grid)
        cached_view = columns.view(3)  # populate the lazy view cache
        shipped = pickle.loads(pickle.dumps(columns))
        assert shipped == columns
        assert shipped._views == [None] * len(columns)
        assert results_identical(shipped.view(3), cached_view)

    def test_views_are_cached_per_batch_not_shared(self):
        grid = random_grid(2, n=4)
        _, columns = SweepRunner(
            EvaluationService(memoize=False), backend="vector"
        ).run_columns(grid)
        assert columns.view(1) is columns.view(1)
        copy = pickle.loads(pickle.dumps(columns))
        assert copy.view(1) is not columns.view(1)


class TestBatchAssembly:
    def _results(self, n: int = 4):
        grid = random_grid(13, n=n)
        service = EvaluationService(memoize=False)
        return [
            service.evaluate(paper_config(), point.streams) for point in grid
        ]

    def test_from_results_round_trips_views(self):
        results = self._results()
        columns = ResultColumns.from_results(results)
        assert len(columns) == len(results)
        for view, original in zip(columns.views(), results):
            assert results_identical(view, original)

    def test_append_from_copies_rows_bit_identically(self):
        results = self._results()
        source = ResultColumns.from_results(results)
        picked = ResultColumns()
        for row in (2, 0):
            picked.append_from(source, row)
        assert results_identical(picked.view(0), results[2])
        assert results_identical(picked.view(1), results[0])

    def test_extend_concatenates(self):
        results = self._results(6)
        left = ResultColumns.from_results(results[:2])
        right = ResultColumns.from_results(results[2:])
        merged = ResultColumns()
        merged.extend(left)
        merged.extend(right)
        assert merged == ResultColumns.from_results(results)

    def test_counter_columns_cover_perf_counters(self):
        results = self._results(1)
        columns = ResultColumns.from_results(results)
        counters = columns.view(0).counters
        for name in COUNTER_COLUMNS:
            assert getattr(counters, name) == getattr(results[0].counters, name)

    def test_annotating_a_view_does_not_corrupt_the_batch(self):
        results = self._results(2)
        columns = ResultColumns.from_results(results)
        view = columns.view(0)
        view.counters.note("scribbled by a consumer")
        assert columns.counter_notes[0] == tuple(results[0].counters.notes)
        fresh = pickle.loads(pickle.dumps(columns))
        assert "scribbled by a consumer" not in fresh.view(0).counters.notes


def mixed_batch() -> ResultColumns:
    """Seven rows with one, two and three streams, cold and warm far."""
    read = StreamSpec(op=Op.READ, threads=8, access_size=4096)
    write = StreamSpec(op=Op.WRITE, threads=4, access_size=256)
    far = read.with_(target_socket=1, threads=18)
    config = paper_config()
    warm = DirectoryState.warm(config.topology)
    service = EvaluationService(memoize=False)
    return ResultColumns.from_results([
        service.evaluate(config, (read,)),
        service.evaluate(config, (read, write)),
        service.evaluate(config, (far,)),
        service.evaluate(config, (far, write, read.with_(issuing_socket=1))),
        service.evaluate(config, (write,)),
        service.evaluate(config, (far,), warm),
        service.evaluate(config, (write.with_(target_socket=1), read)),
    ])


def appended(source: ResultColumns, rows, directory_after=None) -> ResultColumns:
    """The oracle for ``take``: a loop of ``append_from``."""
    out = ResultColumns()
    for k, row in enumerate(rows):
        if directory_after is None:
            out.append_from(source, row)
        else:
            out.append_from(source, row, directory_after=directory_after[k])
    return out


class TestTake:
    @pytest.mark.parametrize("rows", [
        range(7), range(0), range(2, 5), range(3, 4), range(6, 7),
    ], ids=repr)
    def test_contiguous_range_equals_append_from(self, rows):
        source = mixed_batch()
        taken = source.take(rows)
        assert taken == appended(source, rows)
        assert len(taken) == len(rows)
        assert taken.offsets[0] == 0

    @pytest.mark.parametrize("rows", [
        [6, 0, 3], [3, 3, 1, 3], [1], [], [5, 4, 3, 2, 1, 0], range(6, 0, -2),
    ], ids=repr)
    def test_any_order_with_repeats_equals_append_from(self, rows):
        source = mixed_batch()
        assert source.take(rows) == appended(source, rows)

    def test_views_match_the_source_rows(self):
        source = mixed_batch()
        rows = [3, 1, 3, 6]
        taken = source.take(rows)
        for k, row in enumerate(rows):
            assert results_identical(taken.view(k), source.view(row))

    @pytest.mark.parametrize("rows", [range(1, 4), [3, 1, 3]], ids=repr)
    def test_directory_after_override(self, rows):
        source = mixed_batch()
        warm = DirectoryState.warm(paper_config().topology)
        states = [warm, None, DirectoryState.cold()]
        taken = source.take(rows, directory_after=states)
        assert taken == appended(source, rows, states)
        assert taken.directory_after == states
        # The source keeps its own states.
        assert source.directory_after == mixed_batch().directory_after

    def test_directory_after_must_match_the_rows(self):
        with pytest.raises(SchemaError):
            mixed_batch().take([0, 1], directory_after=[None])

    def test_range_past_the_end_is_rejected(self):
        with pytest.raises(IndexError):
            mixed_batch().take(range(5, 9))

    @pytest.mark.parametrize("rows", [range(7), [2, 0, 2]], ids=repr)
    def test_view_caches_are_independent(self, rows):
        source = mixed_batch()
        before = source.view(2)
        taken = source.take(rows)
        assert taken._views == [None] * len(taken)
        view = taken.view(1)
        assert view is not source.view(rows[1])
        view.counters.note("scribbled on the taken batch")
        assert "scribbled on the taken batch" not in source.view(rows[1]).counters.notes
        source.view(2).counters.note("scribbled on the source")
        assert source.view(2) is before
        fresh = taken.view(list(rows).index(2))
        assert "scribbled on the source" not in fresh.counters.notes


class TestGridPointErrorPartial:
    def _poisoned(self) -> SweepGrid:
        good = StreamSpec(op=Op.READ, threads=4, access_size=4096)
        bad = StreamSpec(op=Op.READ, threads=4, access_size=4096, target_socket=9)
        return SweepGrid(
            name="poisoned",
            points=(
                SweepPoint(label="ok-0", params={}, streams=(good,)),
                SweepPoint(label="ok-1", params={}, streams=(good.with_(threads=8),)),
                SweepPoint(label="bad", params={}, streams=(bad,)),
                SweepPoint(label="ok-3", params={}, streams=(good.with_(threads=2),)),
            ),
        )

    @pytest.mark.parametrize(
        "backend, jobs", [("vector", 1), ("cluster", 2)], ids=["inline", "cluster"]
    )
    def test_partial_batch_holds_the_completed_prefix(self, backend, jobs):
        grid = self._poisoned()
        runner = SweepRunner(
            EvaluationService(memoize=False), backend=backend, jobs=jobs
        )
        with pytest.raises(GridPointError) as excinfo:
            runner.run_columns(grid)
        error = excinfo.value
        assert error.index == 2
        assert error.label == "bad"
        assert error.grid == "poisoned"
        assert isinstance(error.partial, ResultColumns)
        oracle = EvaluationService(memoize=False)
        config = paper_config()
        for i in range(len(error.partial)):
            expected = oracle.evaluate(config, grid.points[i].streams)
            assert results_identical(error.partial.view(i), expected)
