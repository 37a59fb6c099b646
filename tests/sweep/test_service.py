"""EvaluationService: caching is invisible except in the stats."""

import pytest

from repro.errors import ConfigurationError, GridPointError, TopologyError
from repro.memsim import DirectoryState, Op, StreamSpec, paper_config
from repro.obs import CountersRecorder, TraceRecorder
from repro.sweep import (
    CacheStats,
    DiskCache,
    EvaluationService,
    default_service,
    set_default_service,
)
from repro.sweep.cache import request_digest

from tests.sweep.test_result_columns import random_grid

NEAR_READ = StreamSpec(op=Op.READ, threads=18, access_size=4096)
FAR_READ = StreamSpec(
    op=Op.READ, threads=8, access_size=4096, issuing_socket=0, target_socket=1
)
FAR_WRITE = StreamSpec(
    op=Op.WRITE, threads=8, access_size=4096, issuing_socket=0, target_socket=1
)


def results_identical(a, b) -> bool:
    return (
        a.total_gbps == b.total_gbps
        and [s.gbps for s in a.streams] == [s.gbps for s in b.streams]
        and a.counters == b.counters
        and a.directory_after == b.directory_after
    )


class TestMemoization:
    def test_cached_equals_uncached_bit_identical(self):
        config = paper_config()
        cached = EvaluationService()
        uncached = EvaluationService(memoize=False)
        for streams in ((NEAR_READ,), (FAR_READ,), (FAR_WRITE, NEAR_READ)):
            for state in (DirectoryState.cold(), DirectoryState.warm(config.topology)):
                warm_hit = cached.evaluate(config, streams, state)  # may be a hit
                raw = uncached.evaluate(config, streams, state)
                assert results_identical(warm_hit, raw)
        assert uncached.stats.hits == 0

    def test_repeat_is_a_hit(self):
        service = EvaluationService()
        first = service.evaluate(paper_config(), (NEAR_READ,))
        second = service.evaluate(paper_config(), (NEAR_READ,))
        assert (service.stats.hits, service.stats.misses) == (1, 1)
        assert results_identical(first, second)

    def test_hits_return_independent_copies(self):
        service = EvaluationService()
        first = service.evaluate(paper_config(), (NEAR_READ,))
        second = service.evaluate(paper_config(), (NEAR_READ,))
        second.counters.note("annotated by caller")
        assert "annotated by caller" not in first.counters.notes

    def test_different_config_misses(self):
        from repro.memsim import MachineConfig

        service = EvaluationService()
        service.evaluate(paper_config(), (NEAR_READ,))
        service.evaluate(MachineConfig(prefetcher_enabled=False), (NEAR_READ,))
        assert service.stats.misses == 2


class TestNormalization:
    def test_near_only_shares_entry_across_directory_states(self):
        config = paper_config()
        service = EvaluationService()
        cold = service.evaluate(config, (NEAR_READ,), DirectoryState.cold())
        warm = service.evaluate(
            config, (NEAR_READ,), DirectoryState.warm(config.topology)
        )
        assert (service.stats.hits, service.stats.misses) == (1, 1)
        assert cold.total_gbps == warm.total_gbps
        # directory_after still reflects each caller's full input state.
        assert cold.directory_after == DirectoryState.cold()
        assert warm.directory_after == DirectoryState.warm(config.topology)

    def test_far_read_warmth_is_part_of_the_key(self):
        config = paper_config()
        service = EvaluationService()
        cold = service.evaluate(config, (FAR_READ,), DirectoryState.cold())
        warm = service.evaluate(
            config, (FAR_READ,), DirectoryState.warm(config.topology)
        )
        assert service.stats.misses == 2
        assert cold.total_gbps < warm.total_gbps

    def test_irrelevant_warm_pairs_do_not_split_the_key(self):
        config = paper_config()
        service = EvaluationService()
        service.evaluate(config, (FAR_READ,), DirectoryState.cold())
        # (1, 0) warmth is unobservable by a 0->1 read: still a hit.
        service.evaluate(config, (FAR_READ,), DirectoryState(frozenset({(1, 0)})))
        assert (service.stats.hits, service.stats.misses) == (1, 1)


class TestDiskCache:
    def test_round_trip_across_services(self, tmp_path):
        config = paper_config()
        first = EvaluationService(disk_cache=DiskCache(tmp_path))
        original = first.evaluate(config, (FAR_READ,), DirectoryState.cold())
        second = EvaluationService(disk_cache=DiskCache(tmp_path))
        restored = second.evaluate(config, (FAR_READ,), DirectoryState.cold())
        assert second.stats.disk_hits == 1
        assert results_identical(original, restored)

    def test_corrupt_entry_recomputed(self, tmp_path):
        config = paper_config()
        service = EvaluationService(disk_cache=DiskCache(tmp_path))
        service.evaluate(config, (NEAR_READ,))
        digest = request_digest(config, (NEAR_READ,), DirectoryState.cold())
        shard = tmp_path / "index" / f"{digest[:2]}.json"
        shard.write_text("not json")
        fresh = EvaluationService(disk_cache=DiskCache(tmp_path))
        fresh.evaluate(config, (NEAR_READ,))
        assert (fresh.stats.disk_hits, fresh.stats.misses) == (0, 1)

    def test_stats_describe_mentions_disk(self, tmp_path):
        EvaluationService(disk_cache=DiskCache(tmp_path)).evaluate(
            paper_config(), (NEAR_READ,)
        )
        reloaded = EvaluationService(disk_cache=DiskCache(tmp_path))
        reloaded.evaluate(paper_config(), (NEAR_READ,))
        text = reloaded.stats.describe()
        assert "1 hits / 0 misses" in text
        assert "1 served from disk" in text


class TestDefaultService:
    def test_install_and_restore(self):
        fresh = EvaluationService()
        previous = set_default_service(fresh)
        try:
            assert default_service() is fresh
        finally:
            set_default_service(previous)
        assert default_service() is not fresh

    def test_invalid_jobs_rejected(self):
        from repro.sweep import SweepRunner

        with pytest.raises(ConfigurationError):
            SweepRunner(jobs=0)

    def test_lazy_init_is_race_free(self):
        import threading

        from repro.sweep import service as service_module

        previous = set_default_service(None)
        barrier = threading.Barrier(8)
        seen: list[EvaluationService] = []
        lock = threading.Lock()

        def grab() -> None:
            barrier.wait()  # line every thread up on the first call
            instance = default_service()
            with lock:
                seen.append(instance)

        try:
            threads = [threading.Thread(target=grab) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            set_default_service(previous)
        assert len(seen) == 8
        assert len({id(instance) for instance in seen}) == 1
        assert service_module._DEFAULT_SERVICE_LOCK is not None


class TestLazyDelivery:
    def test_annotating_a_hit_cannot_corrupt_the_stored_entry(self):
        service = EvaluationService()
        config = paper_config()
        first = service.evaluate(config, (NEAR_READ,))
        first.counters.notes.append("annotated by caller one")
        first.counters.media_bytes_read += 999
        second = service.evaluate(config, (NEAR_READ,))
        assert service.stats.hits == 1
        assert "annotated by caller one" not in second.counters.notes
        assert second.counters.media_bytes_read != first.counters.media_bytes_read

    def test_copy_of_unmaterialized_copy_stays_pristine(self):
        service = EvaluationService()
        config = paper_config()
        baseline = service.evaluate(config, (NEAR_READ,))
        hit = service.evaluate(config, (NEAR_READ,))
        dup = hit.copy()  # neither copy has materialized counters yet
        hit.counters.notes.append("scribble")
        assert dup.counters.notes == baseline.counters.notes
        assert "scribble" not in dup.counters.notes


#: Grids that repeat a point: the seeded random grid repeats two of its
#: twelve points, and ``[p, q, p]`` repeats its first.
REPEATING_GRIDS = {
    "random_grid_11": [point.streams for point in random_grid(11)],
    "p_q_p": [(NEAR_READ,), (FAR_READ,), (NEAR_READ,)],
}


class TestGridRepeats:
    """A grid repeating a point keeps the per-point loop's contract."""

    def run(self, points, grid, recorder, disk_dir):
        service = EvaluationService(
            DiskCache(disk_dir) if disk_dir is not None else None
        )
        config = paper_config()
        if grid:
            rows = service.evaluate_grid_columns(
                config, points, recorder=recorder
            ).views()
        else:
            rows = [
                service.evaluate(config, streams, recorder=recorder)
                for streams in points
            ]
        return service.stats, rows

    @pytest.mark.parametrize("name", sorted(REPEATING_GRIDS))
    @pytest.mark.parametrize("disk", [False, True], ids=["memo", "memo-disk"])
    def test_grid_equals_per_point_loop(self, name, disk, tmp_path):
        points = REPEATING_GRIDS[name]
        repeats = len(points) - len(set(points))
        assert repeats > 0

        def disk_dir(side):
            return tmp_path / side if disk else None

        loop_rec, grid_rec = CountersRecorder(), CountersRecorder()
        loop_stats, loop_rows = self.run(points, False, loop_rec, disk_dir("loop"))
        grid_stats, grid_rows = self.run(points, True, grid_rec, disk_dir("grid"))
        assert (loop_stats.hits, loop_stats.misses) == (repeats, len(set(points)))
        assert grid_stats == loop_stats
        assert grid_rec.snapshot() == loop_rec.snapshot()
        assert len(grid_rows) == len(loop_rows)
        for got, want in zip(grid_rows, loop_rows):
            assert results_identical(got, want)

        # Each repeat is one ``sweep.cache_hit`` event from the memo.
        loop_trace, grid_trace = TraceRecorder(), TraceRecorder()
        self.run(points, False, loop_trace, disk_dir("loop-trace"))
        self.run(points, True, grid_trace, disk_dir("grid-trace"))

        def events(trace):
            return [
                (r["name"], r["fields"]) for r in trace.records if r["type"] == "event"
            ]

        assert events(grid_trace) == events(loop_trace)
        assert [fields["source"] for _, fields in events(grid_trace)] == ["memo"] * repeats

    def test_failing_point_stops_tallies_where_the_loop_stops(self):
        # The loop raises at the poisoned point and never reaches the
        # repeat after it; neither does the grid's tally.
        bad = (StreamSpec(op=Op.READ, threads=4, target_socket=9),)
        points = [(NEAR_READ,), bad, (NEAR_READ,)]
        loop, grid = EvaluationService(), EvaluationService()
        with pytest.raises(TopologyError):
            for streams in points:
                loop.evaluate(paper_config(), streams)
        with pytest.raises(GridPointError) as excinfo:
            grid.evaluate_grid_columns(paper_config(), points)
        assert excinfo.value.index == 1
        assert grid.stats == loop.stats

    @pytest.mark.parametrize(
        "primed, want",
        [(False, (0, 1)), (True, (0, 1))],
        ids=["bad-then-miss", "bad-then-memo-hit"],
    )
    def test_no_tally_or_store_after_a_failing_point(self, primed, want):
        # ``[bad, p]`` and ``[bad, h]`` (``h`` primed in the memo): the
        # loop stops at ``bad``, which counts its own miss, and never
        # reaches the point after it.
        bad = (StreamSpec(op=Op.READ, threads=4, target_socket=9),)
        after = (NEAR_READ,)
        config = paper_config()
        services = []
        for _ in ("loop", "grid"):
            service = EvaluationService()
            if primed:
                service.evaluate(config, after)
                service.stats = CacheStats()
            services.append(service)
        loop, grid = services
        with pytest.raises(TopologyError):
            for streams in (bad, after):
                loop.evaluate(config, streams)
        with pytest.raises(GridPointError) as excinfo:
            grid.evaluate_grid_columns(config, [bad, after])
        assert excinfo.value.index == 0
        assert (grid.stats.hits, grid.stats.misses) == want
        assert grid.stats == loop.stats
        # Nothing past the failure was stored either.
        assert len(grid._memo) == len(loop._memo) == (1 if primed else 0)

    def test_concurrent_grids_keep_their_own_rows(self):
        # Threads pricing the same repeating grid on one service race on
        # the memo: a key held by another thread's batch is that
        # thread's, not a repeat, so each call still returns its own
        # correct rows and the memo holds one entry per distinct point.
        import sys
        import threading

        config = paper_config()
        points = REPEATING_GRIDS["random_grid_11"]
        want = EvaluationService(memoize=False).evaluate_grid_columns(config, points)
        service = EvaluationService()
        barrier = threading.Barrier(4)
        outputs: list[object] = []
        lock = threading.Lock()

        def price() -> None:
            barrier.wait()
            for _ in range(5):
                got = service.evaluate_grid_columns(config, points)
                with lock:
                    outputs.append(got)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=price) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(outputs) == 20
        for got in outputs:
            assert got.views() == want.views()
        assert len(service._memo) == len(set(points))

