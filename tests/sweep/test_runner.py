"""SweepRunner: cluster, interleaved, and cached runs are bit-identical."""

import pytest

from repro.errors import GridPointError, SimulationError, SweepError, TopologyError
from repro.memsim import DirectoryState, MachineConfig, Op, StreamSpec, paper_config
from repro.sweep import DiskCache, EvaluationService, SweepRunner
from repro.workloads.grids import SweepGrid, SweepPoint


def make_grid(name: str = "grid", threads=(1, 2, 4, 8, 18, 24, 36)) -> SweepGrid:
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
    for t in threads:
        points.append(
            SweepPoint(
                label=f"far-{t}",
                params={"threads": t, "op": "far"},
                streams=(
                    StreamSpec(
                        op=Op.READ, threads=t, access_size=4096,
                        issuing_socket=0, target_socket=1,
                    ),
                ),
            )
        )
    return SweepGrid(name=name, points=tuple(points))


class TestParallelism:
    def test_jobs_4_bit_identical_to_jobs_1(self):
        grid = make_grid()
        labels, inline = SweepRunner(
            EvaluationService(memoize=False), jobs=1
        ).run_columns(grid)
        cluster_labels, cluster = SweepRunner(
            EvaluationService(memoize=False), jobs=4, backend="cluster"
        ).run_columns(grid)
        assert labels == cluster_labels  # same labels, same order
        assert inline == cluster
        for a, b in zip(inline.views(), cluster.views()):
            assert a.total_gbps.hex() == b.total_gbps.hex()
            assert a.counters == b.counters
            assert a.directory_after == b.directory_after

    def test_jobs_share_one_memo_cache(self, tmp_path):
        # Cluster workers share the coordinator's cache tier: a second
        # run over the same disk-backed service computes nothing.
        grid = make_grid(threads=(1, 4))
        SweepRunner(
            EvaluationService(DiskCache(tmp_path)), jobs=2, backend="cluster"
        ).run_columns(grid)
        service = EvaluationService(DiskCache(tmp_path))
        SweepRunner(service, jobs=2, backend="cluster").run_columns(grid)
        assert service.stats.hits >= len(grid)
        assert service.stats.misses == 0

    def test_results_keyed_and_ordered_by_label(self):
        grid = make_grid(threads=(1, 4))
        labels, columns = SweepRunner(EvaluationService()).run_columns(grid)
        assert labels == grid.labels()
        assert len(columns) == len(grid)

    def test_totals_match_run(self):
        grid = make_grid(threads=(1, 4))
        runner = SweepRunner(EvaluationService())
        labels, columns = runner.run_columns(grid)
        assert runner.totals(grid) == {
            label: result.total_gbps
            for label, result in zip(labels, columns.views())
        }


class TestIsolation:
    def test_interleaved_sweeps_match_isolated(self):
        """Running two sweeps point-by-point interleaved must equal
        running each alone: no evaluation can leak state into the next."""
        config = paper_config()
        ablated = MachineConfig(prefetcher_enabled=False)
        warm = DirectoryState.warm(config.topology)
        grid = make_grid(threads=(1, 8, 36))

        alone = EvaluationService(memoize=False)
        expected_a = [
            alone.evaluate(config, p.streams, warm).total_gbps for p in grid
        ]
        expected_b = [
            alone.evaluate(ablated, p.streams, warm).total_gbps for p in grid
        ]

        mixed = EvaluationService()
        got_a, got_b = [], []
        for point in grid:  # interleave the two sweeps on one service
            got_a.append(mixed.evaluate(config, point.streams, warm).total_gbps)
            got_b.append(mixed.evaluate(ablated, point.streams, warm).total_gbps)
        assert got_a == expected_a
        assert got_b == expected_b

    def test_every_point_sees_the_same_directory(self):
        """Grid order must not matter: a far point early in the grid does
        not warm the directory for a far point later in the grid."""
        grid = make_grid(threads=(4,))
        reversed_grid = SweepGrid(name="rev", points=tuple(reversed(grid.points)))
        runner = SweepRunner(EvaluationService(), jobs=1)
        forward = runner.totals(grid, directory=DirectoryState.cold())
        backward = runner.totals(reversed_grid, directory=DirectoryState.cold())
        assert forward == backward


def poisoned_grid() -> SweepGrid:
    """A grid whose middle point references a socket that does not exist.

    The spec constructs fine — the failure only surfaces inside
    ``evaluate``, which is exactly the case where a bare worker
    traceback would not say which point was at fault.
    """
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


class TestPoisonedPoint:
    @pytest.mark.parametrize(
        "backend, jobs", [("vector", 1), ("cluster", 2)], ids=["serial", "parallel"]
    )
    def test_error_names_grid_and_point(self, backend, jobs):
        runner = SweepRunner(
            EvaluationService(memoize=False), jobs=jobs, backend=backend
        )
        with pytest.raises(SweepError) as excinfo:
            runner.run_columns(poisoned_grid())
        message = str(excinfo.value)
        assert "'poisoned'" in message
        assert "'bad-socket-9'" in message
        # Every backend reports the same error: same text, same original
        # type (rebuilt by name after crossing the cluster wire).
        with pytest.raises(GridPointError) as inline:
            SweepRunner(EvaluationService(memoize=False)).run_columns(poisoned_grid())
        assert message == str(inline.value)
        assert type(excinfo.value.original) is type(inline.value.original)
        assert type(excinfo.value.original) is TopologyError

    def test_original_exception_is_chained(self):
        runner = SweepRunner(EvaluationService(memoize=False))
        with pytest.raises(SweepError) as excinfo:
            runner.run_columns(poisoned_grid())
        cause = excinfo.value.__cause__
        assert cause is not None
        assert "socket" in str(cause)

    def test_sweep_error_is_a_simulation_error(self):
        # Callers already catching SimulationError keep working.
        assert issubclass(SweepError, SimulationError)
