"""The vector sweep backend is bit-identical to serial, errors included.

``backend="vector"`` routes whole grids through the batched kernels, so
beyond result equality these tests pin the operational contract: cache
statistics and recorder counters account every point exactly as a plain
per-point loop over :meth:`EvaluationService.evaluate` (the serial
oracle) does, a grid-primed memo cache services later per-point calls,
failures name the grid and point label, and the cluster backend changes
nothing observable.
"""

import pytest

from repro.errors import ConfigurationError, GridPointError, SweepError
from repro.memsim import (
    DaxMode,
    DirectoryState,
    Op,
    Pattern,
    PinningPolicy,
    StreamSpec,
    paper_config,
)
from repro.obs import CountersRecorder
from repro.sweep import EvaluationService, SweepRunner
from repro.workloads.grids import SweepGrid, SweepPoint


def make_grid(name: str = "grid", threads=(1, 4, 8, 18, 36)) -> SweepGrid:
    """Eligible sequential points plus far-socket fallback points."""
    points = []
    for t in threads:
        for op in (Op.READ, Op.WRITE):
            points.append(
                SweepPoint(
                    label=f"{op.value}-{t}",
                    params={"threads": t, "op": op.value},
                    streams=(StreamSpec(op=op, threads=t, access_size=4096),),
                )
            )
        points.append(
            SweepPoint(
                label=f"far-{t}",
                params={"threads": t, "op": "far"},
                streams=(
                    StreamSpec(
                        op=Op.READ, threads=t, access_size=64,
                        issuing_socket=0, target_socket=1,
                    ),
                ),
            )
        )
    return SweepGrid(name=name, points=tuple(points))


def poisoned_grid() -> SweepGrid:
    good = StreamSpec(op=Op.READ, threads=4, access_size=4096)
    bad = StreamSpec(op=Op.READ, threads=4, access_size=4096, target_socket=9)
    return SweepGrid(
        name="poisoned",
        points=(
            SweepPoint(label="ok-before", params={}, streams=(good,)),
            SweepPoint(label="bad-socket-9", params={}, streams=(bad,)),
            SweepPoint(label="ok-after", params={}, streams=(good.with_(threads=8),)),
        ),
    )


def serial_run(grid, *, config=None, directory=None, recorder=None):
    """The oracle: one uncached ``evaluate`` call per point, in grid order."""
    service = EvaluationService(memoize=False)
    cfg = config if config is not None else paper_config()
    return {
        point.label: service.evaluate(cfg, point.streams, directory, recorder=recorder)
        for point in grid
    }


def vector_run(grid, *, service=None, backend="vector", jobs=1, recorder=None, **kw):
    runner = SweepRunner(
        service if service is not None else EvaluationService(memoize=False),
        backend=backend,
        jobs=jobs,
        recorder=recorder,
    )
    labels, columns = runner.run_columns(grid, **kw)
    return dict(zip(labels, columns.views()))


def assert_runs_identical(serial, vector):
    assert list(serial) == list(vector)
    for label in serial:
        assert serial[label].total_gbps == vector[label].total_gbps
        assert serial[label].counters == vector[label].counters
        assert serial[label].directory_after == vector[label].directory_after
        assert serial[label] == vector[label]


class TestBitIdentity:
    def test_vector_matches_serial(self):
        grid = make_grid()
        assert_runs_identical(serial_run(grid), vector_run(grid))

    def test_vector_matches_serial_with_warm_directory(self):
        config = paper_config()
        warm = DirectoryState.warm(config.topology)
        grid = make_grid()
        serial = serial_run(grid, config=config, directory=warm)
        vector = vector_run(grid, config=config, directory=warm)
        assert_runs_identical(serial, vector)

    def test_vector_rejects_jobs_and_names_the_cluster(self):
        # jobs only sizes the cluster; in-process vector runs on one core.
        with pytest.raises(ConfigurationError, match='backend="cluster"'):
            SweepRunner(EvaluationService(), backend="vector", jobs=2)


class TestCacheInterop:
    def test_stats_account_every_point(self):
        service = EvaluationService()
        grid = make_grid()
        SweepRunner(service, backend="vector").run_columns(grid)
        assert service.stats.misses == len(grid)
        assert service.stats.hits == 0
        SweepRunner(service, backend="vector").run_columns(grid)
        assert service.stats.misses == len(grid)
        assert service.stats.hits == len(grid)

    def test_grid_primed_memo_services_per_point_calls(self):
        service = EvaluationService()
        grid = make_grid()
        vector = vector_run(grid, service=service)
        hits_before = service.stats.hits
        for point in grid:
            result = service.evaluate(paper_config(), point.streams)
            assert result == vector[point.label]
        assert service.stats.hits == hits_before + len(grid)


class TestObservability:
    def test_counters_and_events_match_serial(self):
        grid = make_grid()
        serial_rec, vector_rec = CountersRecorder(), CountersRecorder()
        serial_run(grid, recorder=serial_rec)
        vector_run(grid, recorder=vector_rec)
        serial_snap, vector_snap = serial_rec.snapshot(), vector_rec.snapshot()
        # The runner adds its own point tally on top of the evaluations'.
        expected = dict(serial_snap["counters"], **{"sweep.points_count": len(grid)})
        assert vector_snap["counters"] == expected
        assert serial_snap["events"] == vector_snap["events"]

    def test_one_wall_time_observation_per_batch(self):
        # A 100-point grid is one batch: one wall-time sample, not one
        # fabricated per point.
        grid = SweepGrid(
            name="hundred",
            points=tuple(
                SweepPoint(
                    label=f"p{i}",
                    params={},
                    streams=(StreamSpec(op=Op.READ, threads=1 + i % 36,
                                        access_size=64 * (1 + i)),),
                )
                for i in range(100)
            ),
        )
        recorder = CountersRecorder()
        vector_run(grid, recorder=recorder)
        snapshot = recorder.snapshot()
        assert snapshot["counters"]["sweep.points_count"] == 100
        assert snapshot["histograms"]["sweep.batch.wall_seconds"]["count"] == 1
        assert "sweep.point.wall_seconds" not in snapshot["histograms"]


class TestFailures:
    @pytest.mark.parametrize(
        "backend, jobs", [("vector", 1), ("cluster", 2)], ids=["inline", "cluster"]
    )
    def test_error_names_grid_and_point(self, backend, jobs):
        runner = SweepRunner(
            EvaluationService(memoize=False), backend=backend, jobs=jobs
        )
        with pytest.raises(SweepError) as excinfo:
            runner.run_columns(poisoned_grid())
        message = str(excinfo.value)
        assert "'poisoned'" in message
        assert "'bad-socket-9'" in message
        assert "socket" in message.lower()

    def test_service_reports_failing_index(self):
        service = EvaluationService(memoize=False)
        grid = poisoned_grid()
        with pytest.raises(GridPointError) as excinfo:
            service.evaluate_grid_columns(
                paper_config(), [point.streams for point in grid]
            )
        assert excinfo.value.index == 1
        assert "socket" in str(excinfo.value.original)

    def test_grid_point_error_is_a_sweep_error(self):
        # Callers already catching SweepError (or ReproError) keep
        # working when batched evaluation surfaces the failure.
        assert issubclass(GridPointError, SweepError)


def family_grid(name: str = "families") -> SweepGrid:
    """One point per formerly-fallback family, all vector-eligible now."""
    base = StreamSpec(op=Op.READ, threads=8, access_size=4096)
    points = (
        SweepPoint(label="seq", params={}, streams=(base,)),
        SweepPoint(
            label="random",
            params={},
            streams=(base.with_(pattern=Pattern.RANDOM, access_size=256),),
        ),
        SweepPoint(
            label="remote",
            params={},
            streams=(base.with_(issuing_socket=0, target_socket=1),),
        ),
        SweepPoint(
            label="unpinned",
            params={},
            streams=(base.with_(pinning=PinningPolicy.NONE),),
        ),
        SweepPoint(
            label="fsdax",
            params={},
            streams=(base.with_(op=Op.WRITE, dax_mode=DaxMode.FSDAX),),
        ),
        SweepPoint(
            label="mixed",
            params={},
            streams=(base, base.with_(op=Op.WRITE, threads=4)),
        ),
    )
    return SweepGrid(name=name, points=points)


class TestFamilyCoverage:
    def test_every_family_matches_serial_with_counters(self):
        grid = family_grid()
        serial_rec, vector_rec = CountersRecorder(), CountersRecorder()
        serial = serial_run(grid, recorder=serial_rec)
        vector = vector_run(grid, recorder=vector_rec)
        assert_runs_identical(serial, vector)
        serial_snap, vector_snap = serial_rec.snapshot(), vector_rec.snapshot()
        expected = dict(serial_snap["counters"], **{"sweep.points_count": len(grid)})
        assert vector_snap["counters"] == expected
        # Every family is priced in batch: no scalar fallback remains.
        assert "sweep.vector.fallback_count" not in vector_snap["counters"]

    def test_family_grid_primes_cache_for_per_point_calls(self):
        # Far/random/unpinned/fsdax entries computed by the batch must be
        # byte-interchangeable with per-point computes: a later scalar
        # call hits the memo the vector sweep populated.
        service = EvaluationService()
        grid = family_grid()
        vector = vector_run(grid, service=service)
        assert service.stats.misses == len(grid)
        for point in grid:
            assert service.evaluate(paper_config(), point.streams) == vector[point.label]
        assert service.stats.hits == len(grid)


class TestFallbackCounters:
    def test_poisoned_point_emits_fallback_reason(self):
        # The scalar residue is observable: the service counts the
        # fallback (with its reason) before the scalar evaluator raises.
        service = EvaluationService(memoize=False)
        recorder = CountersRecorder()
        with pytest.raises(GridPointError):
            service.evaluate_grid_columns(
                paper_config(),
                [point.streams for point in poisoned_grid()],
                recorder=recorder,
            )
        counters = recorder.snapshot()["counters"]
        assert counters["sweep.vector.fallback_count"] == 1
        assert counters["sweep.vector.fallback.socket_count"] == 1
