"""Cluster sweep backend: protocol, bit-identity, accounting, errors."""

import asyncio
import json
import multiprocessing.context
import os
import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    BackendError,
    ConfigurationError,
    GridPointError,
    SweepError,
    TopologyError,
)
from repro.memsim import Op, StreamSpec
from repro.memsim.config import DirectoryState, paper_config
from repro.memsim.kernels import ResultColumns
from repro.obs import NULL_RECORDER, CountersRecorder
from repro.sweep import BACKENDS, DiskCache, EvaluationService, SweepRunner
from repro.sweep.cache import columns_from_payload, columns_to_payload
from repro.sweep.cluster import ClusterOptions, Session, protocol
from repro.sweep.cluster.coordinator import Coordinator, _Link
from repro.sweep.cluster.worker import ClusterWorker
from repro.workloads.grids import SweepGrid, SweepPoint
from repro.workloads.sequential import sequential_sweep

from tests.jsonfuzz import mutated
from tests.serve.conftest import run_async


def fig3_grid() -> SweepGrid:
    return sequential_sweep(Op.READ)


def _point(label: str, *, threads: int = 4, size: int = 4096,
           issuing: int = 0, target: int = 0) -> SweepPoint:
    spec = StreamSpec(
        op=Op.READ, threads=threads, access_size=size,
        issuing_socket=issuing, target_socket=target,
    )
    return SweepPoint(label=label, params={"threads": threads}, streams=(spec,))


def _serial(grid: SweepGrid, *, service=None, recorder=None):
    """The oracle: one ``evaluate`` call per point, keyed by label."""
    service = service if service is not None else EvaluationService(memoize=False)
    config = paper_config()
    return {
        point.label: service.evaluate(config, point.streams, recorder=recorder)
        for point in grid
    }


def _cluster(grid: SweepGrid, service=None, **kwargs):
    service = service if service is not None else EvaluationService(memoize=False)
    labels, columns = SweepRunner(
        service, jobs=2, backend="cluster", **kwargs
    ).run_columns(grid)
    return dict(zip(labels, columns.views()))


def _assert_identical(serial, parallel) -> None:
    assert list(serial) == list(parallel)  # same labels, same order
    for label in serial:
        assert serial[label].streams == parallel[label].streams
        assert serial[label].counters == parallel[label].counters
        assert serial[label].directory_after == parallel[label].directory_after


class TestProtocol:
    def test_wire_codec_round_trip(self):
        """Indices and rows cross the wire as canonical JSON.

        The rows carry no stream specs: the receiver re-attaches the
        ones of the points it shipped, and the batch comes back equal.
        """
        points = [_point("near"), _point("far", threads=8, issuing=0, target=1)]
        streams = [point.streams for point in points]
        columns = EvaluationService(memoize=False).evaluate_grid_columns(
            paper_config(), streams
        )
        frame = json.loads(protocol.dump_line({
            "kind": "result", "chunk": 1, "indices": [4, 2],
            "rows": columns_to_payload(columns, specs=False),
        }))
        assert "specs" not in frame["rows"]["streams"]
        assert protocol.field(frame, "indices", tuple[int, ...]) == (4, 2)
        assert protocol.rows(frame, streams) == columns

    def test_rows_must_match_the_shipped_stream_counts(self):
        config = paper_config()
        pair = (_point("a").streams[0], _point("b", threads=8).streams[0])
        shipped = [_point("one").streams, pair]
        columns = EvaluationService(memoize=False).evaluate_grid_columns(
            config, shipped
        )
        payload = columns_to_payload(columns, specs=False)
        assert protocol.rows({"kind": "result", "rows": payload}, shipped) == columns
        moved = dict(payload, offsets=[0, 2, 3])  # same total, other counts
        with pytest.raises(SweepError, match="stream counts"):
            protocol.rows({"kind": "result", "rows": moved}, shipped)
        with pytest.raises(SweepError, match="stream counts"):
            protocol.rows({"kind": "result", "rows": payload}, shipped[:1])
        # The spec-carrying block shape is not a rows payload.
        with pytest.raises(SweepError, match="no 'specs'"):
            protocol.rows(
                {"kind": "result", "rows": columns_to_payload(columns)}, shipped
            )

    def test_missing_or_mistyped_field_is_a_sweep_error(self):
        frame = {"kind": "result", "chunk": "7"}
        with pytest.raises(SweepError, match="lacks 'indices'"):
            protocol.field(frame, "indices", tuple[int, ...])
        with pytest.raises(SweepError, match="bad 'chunk'"):
            protocol.field(frame, "chunk", int)

    def test_frame_round_trip(self):
        async def scenario():
            reader = asyncio.StreamReader(limit=protocol.MAX_FRAME_BYTES)
            reader.feed_data(protocol.dump_line({"kind": "heartbeat"}))
            reader.feed_eof()
            first = await protocol.read_frame(reader)
            assert first == {"kind": "heartbeat"}
            assert await protocol.read_frame(reader) is None  # clean EOF

        run_async(scenario())

    def test_oversized_frame_is_a_sweep_error(self):
        async def scenario():
            reader = asyncio.StreamReader(limit=64)
            reader.feed_data(b"x" * 256)
            with pytest.raises(SweepError, match="exceeds"):
                await protocol.read_frame(reader)

        run_async(scenario())

    @pytest.mark.parametrize("line", [b"not json\n", b"[1, 2]\n", b"{}\n"])
    def test_malformed_frames_are_sweep_errors(self, line):
        async def scenario():
            reader = asyncio.StreamReader(limit=protocol.MAX_FRAME_BYTES)
            reader.feed_data(line)
            reader.feed_eof()
            with pytest.raises(SweepError):
                await protocol.read_frame(reader)

        run_async(scenario())


def _wire(frame: dict) -> dict:
    """``frame`` as a peer receives it: through its JSON line."""
    return json.loads(protocol.dump_line(frame))


class _Writer:
    """A ``StreamWriter`` stand-in that keeps every frame sent."""

    def __init__(self) -> None:
        self.sent: list[bytes] = []

    def write(self, data: bytes) -> None:
        self.sent.append(data)

    async def drain(self) -> None:
        return None

    def close(self) -> None:
        return None

    async def wait_closed(self) -> None:
        return None


_CONFIG = paper_config()
_POINTS = [_point(f"p{i}", threads=i + 1, target=i % 2) for i in range(4)]
_ROWS = columns_to_payload(
    EvaluationService(memoize=False).evaluate_grid_columns(
        _CONFIG, [point.streams for point in _POINTS[:2]]
    ),
    specs=False,
)
_SNAPSHOT = CountersRecorder()
_SNAPSHOT.incr("sweep.points_count", 2)
_SNAPSHOT.observe("sweep.batch.wall_seconds", 0.25)

_SESSION = Session(
    config=_CONFIG, directory=DirectoryState.cold(), grid_name="frames",
    observing=True, points_per_item=2, heartbeat_seconds=1.0,
)

#: One well-formed frame of every kind a coordinator reads.
_COORDINATOR_FRAMES = [
    {"kind": "heartbeat"},
    {"kind": "result", "chunk": 1, "indices": [0, 1], "rows": _ROWS,
     "snapshot": _SNAPSHOT.snapshot(), "wall": 0.5},
    {"kind": "stolen", "req": 1, "indices": [1]},
    {"kind": "failed", "chunk": 1, "indices": [0, 1]},
]
#: One well-formed frame of every kind a worker reads.
_WORKER_FRAMES = [
    {"kind": "chunk", "chunk": 1, "indices": [0, 1]},
    {"kind": "steal", "req": 3},
]


async def _run_worker(frames) -> None:
    """A worker on ``_POINTS`` fed ``frames`` and then ``bye``."""
    reader = asyncio.StreamReader(limit=protocol.MAX_FRAME_BYTES)
    for frame in frames:
        reader.feed_data(protocol.dump_line(frame))
    reader.feed_data(protocol.dump_line({"kind": "bye"}))
    reader.feed_eof()
    await ClusterWorker(
        reader, _Writer(), _SESSION, _POINTS, heartbeat=False
    ).run()


class TestFrameProperty:
    """Any one field of a peer frame replaced by arbitrary JSON.

    The frame is either handled or rejected with :class:`SweepError` —
    the one error the link loops turn into a dropped (and requeued)
    link. Anything else would escape the link task.
    """

    @given(frame=mutated(st.sampled_from(_COORDINATOR_FRAMES)))
    @settings(max_examples=300, deadline=None)
    def test_coordinator_frames_decode_or_raise_sweep_error(self, frame):
        async def scenario():
            coordinator = Coordinator(
                "frames", _POINTS,
                config=_CONFIG, directory=DirectoryState.cold(),
                service=EvaluationService(memoize=False),
                recorder=CountersRecorder(), workers_hint=1,
            )
            reader = asyncio.StreamReader(limit=protocol.MAX_FRAME_BYTES)
            reader.feed_data(protocol.dump_line(frame))
            reader.feed_eof()
            link = _Link(1, reader, _Writer(), now=0.0)
            link.outstanding = {1: {0, 1}}
            coordinator._links[link.id] = link
            try:
                await coordinator._handle(link, await protocol.read_frame(reader))
            except SweepError:
                return

        run_async(scenario())

    @given(frame=mutated(st.sampled_from(_WORKER_FRAMES)))
    @settings(max_examples=300, deadline=None)
    def test_worker_frames_decode_or_raise_sweep_error(self, frame):
        async def scenario():
            try:
                await _run_worker([frame])
            except SweepError:
                return

        run_async(scenario())

    @pytest.mark.parametrize("index", [-1, len(_POINTS)])
    def test_worker_rejects_an_index_outside_its_grid(self, index):
        with pytest.raises(SweepError, match="outside the grid"):
            run_async(
                _run_worker([{"kind": "chunk", "chunk": 1, "indices": [0, index]}])
            )


_ROW = columns_to_payload(
    EvaluationService(memoize=False).evaluate_grid_columns(
        _CONFIG, [_POINTS[0].streams]
    ),
    specs=False,
)
_EMPTY_ROWS = columns_to_payload(ResultColumns(), specs=False)


class TestAnswersMustBeOutstanding:
    """A frame answers only points outstanding on the link it came on.

    Link 1 holds chunk 1 (points 0, 1) and chunk 2 (point 2); link 2
    holds chunk 3 (point 3). Any other answer drops link 1 — the frame
    raises :class:`SweepError` — and settles nothing.
    """

    def _handle(self, frame):
        async def scenario():
            coordinator = Coordinator(
                "frames", _POINTS,
                config=_CONFIG, directory=DirectoryState.cold(),
                service=EvaluationService(memoize=False),
                recorder=NULL_RECORDER, workers_hint=2,
            )
            mine = _Link(1, asyncio.StreamReader(), _Writer(), now=0.0)
            other = _Link(2, asyncio.StreamReader(), _Writer(), now=0.0)
            mine.outstanding = {1: {0, 1}, 2: {2}}
            other.outstanding = {3: {3}}
            coordinator._links.update({1: mine, 2: other})
            try:
                await coordinator._handle(mine, _wire(frame))
            except SweepError:
                return coordinator, mine, True
            return coordinator, mine, False

        return run_async(scenario())

    @pytest.mark.parametrize(
        "frame",
        [
            {"kind": "result", "chunk": 3, "indices": [3], "rows": _ROW,
             "snapshot": None, "wall": 0.1},
            {"kind": "result", "chunk": 1, "indices": [2], "rows": _ROW,
             "snapshot": None, "wall": 0.1},
            {"kind": "result", "chunk": 1, "indices": [0, 0], "rows": _ROWS,
             "snapshot": None, "wall": 0.1},
            {"kind": "result", "chunk": 1, "indices": [], "rows": _EMPTY_ROWS,
             "snapshot": None, "wall": 0.1},
            {"kind": "failed", "chunk": 3, "indices": [3]},
            {"kind": "failed", "chunk": 1, "indices": [2]},
            {"kind": "failed", "chunk": 1, "indices": []},
            {"kind": "stolen", "req": 2, "indices": [1, 3]},
            {"kind": "stolen", "req": 2, "indices": [2, 2]},
        ],
        ids=[
            "result-foreign-chunk", "result-own-point-other-chunk",
            "result-duplicate", "result-empty", "failed-foreign-chunk",
            "failed-own-point-other-chunk", "failed-empty",
            "stolen-foreign-point", "stolen-duplicate",
        ],
    )
    def test_other_answers_drop_the_link_and_settle_nothing(self, frame):
        coordinator, mine, dropped = self._handle(frame)
        assert dropped
        assert mine.outstanding == {1: {0, 1}, 2: {2}}
        assert not coordinator._filled
        assert not coordinator._failed

    def test_an_answer_under_its_own_chunk_settles_its_points(self):
        coordinator, mine, dropped = self._handle(
            {"kind": "result", "chunk": 1, "indices": [1, 0], "rows": _ROWS,
             "snapshot": None, "wall": 0.1}
        )
        assert not dropped
        assert mine.outstanding == {2: {2}}
        assert sorted(coordinator._filled) == [0, 1]


class TestResultFrames:
    """``result`` frames carry rows only; the coordinator re-attaches specs."""

    def test_merging_a_1000_point_grid_constructs_no_stream_spec(self, monkeypatch):
        points = [
            _point(f"p{i}", threads=1 + i % 36, size=64 * (1 + i // 36), target=i % 2)
            for i in range(1000)
        ]
        columns = EvaluationService(memoize=False).evaluate_grid_columns(
            _CONFIG, [point.streams for point in points]
        )
        frame = _wire({
            "kind": "result", "chunk": 1, "indices": list(range(1000)),
            "rows": columns_to_payload(columns, specs=False),
            "snapshot": None, "wall": 0.1,
        })
        made = []
        post_init = StreamSpec.__post_init__

        def counted(spec):
            made.append(spec)
            post_init(spec)

        async def scenario():
            coordinator = Coordinator(
                "frames", points,
                config=_CONFIG, directory=DirectoryState.cold(),
                service=EvaluationService(memoize=False),
                recorder=NULL_RECORDER, workers_hint=2,
            )
            link = _Link(1, asyncio.StreamReader(), _Writer(), now=0.0)
            link.outstanding = {1: set(range(1000))}
            coordinator._links[link.id] = link
            with monkeypatch.context() as patch:
                patch.setattr(StreamSpec, "__post_init__", counted)
                coordinator._merge_result(link, frame)
                merged = len(made)
                # The counter sees specs the decoder builds: a block that
                # carries its specs builds one per stream.
                columns_from_payload(_wire(columns_to_payload(columns)))
            assert coordinator._finished.is_set()
            return merged, coordinator._assemble()

        merged, out = run_async(scenario())
        assert merged == 0
        assert len(made) == 1000
        assert out == columns


class TestSharding:
    def _coordinator(self, points, workers=2, service=None):
        return Coordinator(
            "shards", points,
            config=paper_config(), directory=DirectoryState.cold(),
            service=service if service is not None else EvaluationService(),
            recorder=NULL_RECORDER, workers_hint=workers,
        )

    def test_shards_cover_every_index_exactly_once(self):
        points = [_point(f"p{i}", threads=i + 1) for i in range(23)]

        async def scenario():
            coordinator = self._coordinator(points, workers=3)
            indices = sorted(
                i for chunk in coordinator._pending for i in chunk
            )
            assert indices == list(range(23))
            assert all(chunk for chunk in coordinator._pending)

        run_async(scenario())

    def test_duplicate_content_points_co_locate(self):
        # Same streams, different labels: the request digest ignores the
        # label, so on a service that does not memoize (where repeats are
        # shipped) both land in the same content-hash shard.
        points = [_point(f"p{i}", threads=i + 1) for i in range(16)]
        points.append(_point("dup-a", threads=1))
        points.append(_point("dup-b", threads=1))

        async def scenario():
            coordinator = self._coordinator(
                points, workers=4, service=EvaluationService(memoize=False)
            )
            placed = {
                i: n
                for n, chunk in enumerate(coordinator._pending)
                for i in chunk
            }
            assert placed[0] == placed[16] == placed[17]

        run_async(scenario())

    def test_only_misses_are_shipped(self):
        # A memoizing service answers repeats and memo hits itself: only
        # the first copy of each missed point reaches a chunk.
        config = paper_config()
        service = EvaluationService()
        primed = _point("primed", threads=5)
        service.evaluate(config, primed.streams)
        points = [_point("p0", threads=1), primed, _point("dup", threads=1)]

        async def scenario():
            coordinator = self._coordinator(points, service=service)
            assert coordinator.misses == [0]
            assert [chunk for chunk in coordinator._pending] == [[0]]

        run_async(scenario())


class TestBitIdentity:
    def test_cluster_bit_identical_to_serial_cold(self):
        grid = fig3_grid()
        _assert_identical(_serial(grid), _cluster(grid))

    @given(
        threads=st.lists(
            st.sampled_from([1, 4, 8, 18, 36]), min_size=2, max_size=4, unique=True
        ),
        size=st.sampled_from([256, 4096, 65536]),
    )
    @settings(max_examples=3, deadline=None)
    def test_cluster_merge_deterministic_property(self, threads, size):
        points = tuple(
            _point(f"{t}T", threads=t, size=size, target=t % 2) for t in threads
        )
        grid = SweepGrid(name="prop", points=points)
        _assert_identical(_serial(grid), _cluster(grid))

    def test_cluster_columns_equal_serial_columns(self):
        grid = fig3_grid()
        serial = _serial(grid)
        s_columns = ResultColumns.from_results(serial.values())
        c_labels, c_columns = SweepRunner(
            EvaluationService(memoize=False), jobs=2, backend="cluster"
        ).run_columns(grid)
        assert list(serial) == c_labels
        assert c_columns == s_columns
        assert [v.hex() for v in s_columns.total_gbps()] == [
            v.hex() for v in c_columns.total_gbps()
        ]


class TestAccounting:
    def test_counter_and_stats_parity_with_serial(self):
        grid = fig3_grid()
        ser_rec, clu_rec = CountersRecorder(), CountersRecorder()
        ser_svc = EvaluationService(memoize=False)
        clu_svc = EvaluationService(memoize=False)
        _serial(grid, service=ser_svc, recorder=ser_rec)
        _cluster(grid, clu_svc, recorder=clu_rec)
        assert (ser_svc.stats.hits, ser_svc.stats.misses, ser_svc.stats.disk_hits) \
            == (clu_svc.stats.hits, clu_svc.stats.misses, clu_svc.stats.disk_hits)
        serial = ser_rec.snapshot()["counters"]
        cluster = clu_rec.snapshot()["counters"]
        # The sweep-layer tallies are integers and must match exactly;
        # cluster.* keys are extra (the cluster's own mechanics).
        assert cluster["sweep.points_count"] == len(grid)
        assert cluster["sweep.cache.misses_count"] == serial["sweep.cache.misses_count"]
        assert cluster["cluster.workers_count"] == 2
        assert cluster["cluster.chunks.shipped_count"] >= 2
        # Every serial counter exists in the cluster snapshot too (the
        # memsim families merged over from the workers).
        assert set(serial) <= set(cluster)

    def test_shared_disk_cache_warm_run_hits_everywhere(self, tmp_path):
        grid = fig3_grid()
        serial = _serial(grid)
        cold = _cluster(grid, EvaluationService(disk_cache=DiskCache(tmp_path)))
        warm_rec = CountersRecorder()
        warm_svc = EvaluationService(disk_cache=DiskCache(tmp_path))
        warm = _cluster(grid, warm_svc, recorder=warm_rec)
        _assert_identical(serial, cold)
        _assert_identical(serial, warm)
        n = len(serial)
        # Every warm point is a disk hit of the coordinator's own service,
        # exactly as on the vector backend: nothing reaches a worker.
        assert warm_svc.stats.disk_hits == n
        assert warm_svc.stats.hits == n
        assert warm_svc.stats.misses == 0
        counters = warm_rec.snapshot()["counters"]
        assert counters["sweep.cache.disk_hits_count"] == n
        assert counters["sweep.cache.hits_count"] == n
        assert "cluster.chunks.shipped_count" not in counters


def _tallies(service: EvaluationService, recorder: CountersRecorder):
    """Cache statistics, ``sweep.cache.*`` counters and hit events."""
    snapshot = recorder.snapshot()
    return (
        service.stats,
        {
            name: value
            for name, value in snapshot["counters"].items()
            if name.startswith("sweep.cache.")
        },
        snapshot["events"].get("sweep.cache_hit", 0),
    )


def sweep_counters(recorder: CountersRecorder) -> dict:
    """The ``sweep.*`` counters of ``recorder``."""
    counters = recorder.snapshot()["counters"]
    return {name: value for name, value in counters.items() if name.startswith("sweep.")}


def failure_outcome(exc: GridPointError, service, recorder: CountersRecorder):
    """Everything a failing grid leaves behind.

    The error's index, label, grid, message, cause type and partial
    rows; the :class:`CacheStats`; and the ``sweep.*`` counters.
    """
    return (
        (exc.index, exc.label, exc.grid, str(exc), type(exc.__cause__), exc.partial),
        service.stats,
        sweep_counters(recorder),
    )


def _repeating_grid() -> SweepGrid:
    """Twelve distinct points, each repeated later under another label."""
    points = [_point(f"p{i}", threads=i + 1, target=i % 2) for i in range(12)]
    points += [_point(f"again{i}", threads=i + 1, target=i % 2) for i in range(0, 12, 2)]
    return SweepGrid(name="repeats", points=tuple(points))


class TestBackendParity:
    """``cluster`` and ``vector`` agree in rows and in every cache tally.

    Each scenario runs the same steps on two services, one per backend,
    and compares the rows, the :class:`CacheStats`, the integer
    ``sweep.cache.*`` counters and the ``sweep.cache_hit`` events.
    """

    def _run(self, backend, service, grid, recorder):
        jobs = 2 if backend == "cluster" else 1
        return SweepRunner(
            service, jobs=jobs, backend=backend, recorder=recorder
        ).run_columns(grid)

    def _compare(self, steps, *, memoize=True):
        """Apply ``steps(run, service)`` per backend; compare everything."""
        outcomes = {}
        for backend in ("vector", "cluster"):
            service = EvaluationService(memoize=memoize)
            recorder = CountersRecorder()

            def run(grid, svc=service, backend=backend, recorder=recorder):
                return self._run(backend, svc, grid, recorder)

            rows = steps(run, service)
            outcomes[backend] = (rows, _tallies(service, recorder))
        (v_rows, v_tallies), (c_rows, c_tallies) = (
            outcomes["vector"], outcomes["cluster"],
        )
        assert c_rows == v_rows
        assert c_tallies == v_tallies
        return v_tallies

    def test_same_grid_twice_on_one_service(self):
        grid = fig3_grid()
        stats, counters, events = self._compare(
            lambda run, service: [run(grid), run(grid)]
        )
        n = len(grid)
        assert (stats.hits, stats.misses) == (n, n)
        assert counters["sweep.cache.hits_count"] == events == n

    def test_memo_primed_by_per_point_evaluate(self):
        grid = fig3_grid()
        primed = list(grid)[:10]

        def steps(run, service):
            for point in primed:
                service.evaluate(paper_config(), point.streams)
            return run(grid)

        stats, _, _ = self._compare(steps)
        assert (stats.hits, stats.misses) == (10, len(grid))

    def test_disk_written_by_one_backend_read_by_the_other(self, tmp_path):
        grid = fig3_grid()
        for backend in ("vector", "cluster"):
            service = EvaluationService(disk_cache=DiskCache(tmp_path / backend))
            self._run(backend, service, grid, NULL_RECORDER)

        def files(root):
            return {
                path.relative_to(root): path.read_bytes()
                for path in sorted(root.rglob("*.json"))
            }

        # Both backends write the same blocks and index shards.
        assert files(tmp_path / "vector") == files(tmp_path / "cluster")
        # Each backend reads the other's directory twice on one service:
        # the first read is all disk hits, and each disk hit fills the
        # memo, so the second read is all memo hits.
        outcomes = {}
        for backend, writer in (("vector", "cluster"), ("cluster", "vector")):
            service = EvaluationService(disk_cache=DiskCache(tmp_path / writer))
            recorder = CountersRecorder()
            rows = [self._run(backend, service, grid, recorder) for _ in range(2)]
            outcomes[backend] = (rows, _tallies(service, recorder))
        assert outcomes["cluster"] == outcomes["vector"]
        stats = outcomes["cluster"][1][0]
        assert (stats.hits, stats.disk_hits, stats.misses) == (2 * len(grid), len(grid), 0)

    @pytest.mark.parametrize("primed", [0, 5])
    def test_failing_grid_merges_every_row_before_the_failure(self, primed):
        # Points before the poisoned one may sit in any worker's chunk,
        # and workers may run past it; the cluster must still raise what
        # the in-process loop raises and tally what it tallies, however
        # the frames interleave.
        points = [_point(f"p{i}", threads=i + 1, target=i % 2) for i in range(32)]
        points[2] = _point("bad", issuing=7)
        grid = SweepGrid(name="poisoned", points=tuple(points))
        outcomes = {}
        for backend in ("vector", "cluster"):
            service, recorder = EvaluationService(), CountersRecorder()
            for point in points[3 : 3 + primed]:
                service.evaluate(paper_config(), point.streams)
            with pytest.raises(GridPointError) as excinfo:
                self._run(backend, service, grid, recorder)
            outcomes[backend] = failure_outcome(excinfo.value, service, recorder)
        assert outcomes["cluster"] == outcomes["vector"]
        (index, label, grid_name, _, cause, partial), stats, counters = outcomes["vector"]
        assert (index, label, grid_name, len(partial)) == (2, "bad", "poisoned", 2)
        assert cause is TopologyError
        assert (stats.hits, stats.misses) == (0, 3 + primed)
        assert counters["sweep.cache.misses_count"] == 3

    def test_repeats_under_other_labels_with_a_steal(self):
        from tests.sweep.test_cluster_faults import _run_scenario

        # Every point repeats once, later in the grid: a steal takes the
        # tail of a straggler's queue, so repeats and their first copies
        # would end up on different workers if repeats were shipped.
        grid = SweepGrid(
            name="steal",
            points=tuple(_point(f"p{i}", threads=i + 1) for i in range(36))
            + tuple(_point(f"again{i}", threads=i + 1) for i in range(36)),
        )
        options = ClusterOptions(
            points_per_item=1,
            heartbeat_seconds=10.0,
            heartbeat_timeout_seconds=1e12,
        )
        vector_service, vector_rec = EvaluationService(), CountersRecorder()
        want = self._run("vector", vector_service, grid, vector_rec)
        service, recorder = EvaluationService(), CountersRecorder()
        labels, columns, _ = run_async(_run_scenario(
            grid, [dict(), dict(item_delay_seconds=50.0)], options,
            recorder=recorder, service=service,
        ))
        assert (labels, columns) == want
        assert recorder.snapshot()["counters"]["cluster.chunks.stolen_count"] >= 1
        assert _tallies(service, recorder) == _tallies(vector_service, vector_rec)
        assert (service.stats.hits, service.stats.misses) == (36, 36)

    def test_repeats_on_services_that_do_not_memoize(self):
        grid = _repeating_grid()
        stats, counters, events = self._compare(
            lambda run, service: run(grid), memoize=False
        )
        assert (stats.hits, stats.misses) == (0, len(grid))
        assert events == 0

    def test_warm_grid_ships_nothing_and_forks_no_worker(self, monkeypatch):
        from repro.sweep.cluster import backend

        grid = _repeating_grid()
        service = EvaluationService()
        self._run("vector", service, grid, NULL_RECORDER)

        def no_fork(*args, **kwargs):
            raise AssertionError("a fully cached grid forked a worker")

        monkeypatch.setattr(backend.multiprocessing, "get_context", no_fork)
        recorder = CountersRecorder()
        labels, columns = self._run("cluster", service, grid, recorder)
        assert labels == [point.label for point in grid]
        assert columns == self._run("vector", EvaluationService(), grid, NULL_RECORDER)[1]
        counters = recorder.snapshot()["counters"]
        assert "cluster.chunks.shipped_count" not in counters
        assert "cluster.workers_count" not in counters
        assert counters["sweep.cache.hits_count"] == len(grid)
        assert counters["sweep.points_count"] == len(grid)


class TestErrorPropagation:
    def test_poisoned_point_attribution_and_partial_prefix(self):
        points = tuple(
            [_point(f"p{i}", threads=i + 1) for i in range(6)]
            + [_point("bad", issuing=7)]
            + [_point(f"q{i}", threads=i + 11) for i in range(3)]
        )
        grid = SweepGrid(name="poisoned", points=points)
        with pytest.raises(GridPointError) as excinfo:
            SweepRunner(
                EvaluationService(memoize=False), jobs=2, backend="cluster"
            ).run_columns(grid)
        exc = excinfo.value
        assert exc.label == "bad"
        assert exc.grid == "poisoned"
        assert points[exc.index].label == "bad"
        assert "no such socket: 7" in str(exc)
        # The partial is the contiguous completed grid prefix: its rows
        # are bit-identical to serial's.
        assert len(exc.partial) <= exc.index
        if len(exc.partial):
            serial = _serial(
                SweepGrid(name="prefix", points=points[: len(exc.partial)])
            )
            for row, label in enumerate(list(serial)):
                assert exc.partial.view(row).counters == serial[label].counters

    def test_finish_without_workers_fails_at_once(self):
        grid = fig3_grid()

        async def scenario():
            coordinator = Coordinator(
                grid.name, list(grid),
                config=paper_config(), directory=DirectoryState.cold(),
                service=EvaluationService(memoize=False),
                recorder=NULL_RECORDER, workers_hint=2,
            )
            assert coordinator.misses
            with pytest.raises(SweepError, match="every cluster worker died"):
                await asyncio.wait_for(coordinator.finish(), 3)

        run_async(scenario())


class TestBackendValidation:
    def test_unknown_backend_raises_typed_error_naming_valid_set(self):
        with pytest.raises(BackendError) as excinfo:
            SweepRunner(EvaluationService(), backend="greenlet")
        exc = excinfo.value
        assert isinstance(exc, SweepError)
        assert isinstance(exc, ConfigurationError)
        assert exc.backend == "greenlet"
        assert exc.valid == BACKENDS
        for name in BACKENDS:
            assert repr(name) in str(exc)
        assert "cluster" in str(exc)

    @pytest.mark.parametrize("retired", ["serial", "thread", "process"])
    def test_retired_backends_raise_backend_error(self, retired):
        assert BACKENDS == ("vector", "cluster")
        with pytest.raises(BackendError) as excinfo:
            SweepRunner(EvaluationService(), backend=retired)
        assert excinfo.value.backend == retired

    def test_default_backend_is_vector(self):
        assert SweepRunner().backend == "vector"


class TestOptions:
    def test_defaults_validate(self):
        assert ClusterOptions().points_per_item == 32

    def test_bad_workers_rejected(self):
        # The runner's ``jobs`` is the one local worker count.
        with pytest.raises(ConfigurationError, match="jobs"):
            SweepRunner(EvaluationService(), jobs=0, backend="cluster")

    def test_one_job_spawns_two_local_workers(self, monkeypatch):
        from repro.sweep.cluster import backend

        seen = []

        async def record_workers(grid, points, *, workers, **kwargs):
            seen.append(workers)
            return [], ResultColumns()

        monkeypatch.setattr(backend, "_run_cluster", record_workers)
        for jobs in (1, 2, 3):
            backend.run_grid_columns(
                SweepGrid(name="jobs", points=tuple(_POINTS)), _POINTS,
                config=_CONFIG, directory=DirectoryState.cold(), jobs=jobs,
                service=EvaluationService(), recorder=NULL_RECORDER,
            )
        assert seen == [2, 2, 3]

    def test_bad_points_per_item_rejected(self):
        with pytest.raises(ConfigurationError, match="points_per_item"):
            ClusterOptions(points_per_item=0)

    @pytest.mark.parametrize("seconds", [0.0, -1.0, float("inf"), float("nan")])
    def test_bad_heartbeat_rejected(self, seconds):
        with pytest.raises(ConfigurationError, match="heartbeat_seconds"):
            ClusterOptions(heartbeat_seconds=seconds)

    def test_empty_grid_short_circuits(self):
        from repro.sweep.cluster import run_grid_columns

        labels, columns = run_grid_columns(
            SweepGrid(name="empty", points=(_point("unused"),)), [],
            config=paper_config(), directory=DirectoryState.cold(),
            jobs=2, service=EvaluationService(), recorder=NULL_RECORDER,
        )
        assert labels == []
        assert len(columns) == 0


class TestPrivatePool:
    """Workers are forked children on socketpairs: nothing listens."""

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_no_socket_is_bound_or_listens(self, jobs, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a cluster sweep opened a listening socket")

        forks = []
        start = multiprocessing.context.ForkProcess.start

        def counted(process):
            forks.append(process)
            start(process)

        monkeypatch.setattr(asyncio, "start_server", refuse)
        monkeypatch.setattr(socket.socket, "bind", refuse)
        monkeypatch.setattr(socket.socket, "listen", refuse)
        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", counted)
        grid = fig3_grid()
        runner = SweepRunner(EvaluationService(), jobs=jobs, backend="cluster")
        assert runner.run_columns(grid) == SweepRunner(EvaluationService()).run_columns(grid)
        assert len(forks) == max(2, jobs)

    def test_a_dead_workers_eof_is_not_masked_by_a_sibling(self, tmp_path, monkeypatch):
        # The first worker to start dies at once. Its chunk is requeued on
        # the EOF of its socket, which needs every live sibling to have
        # closed its inherited copy; otherwise only the heartbeat timeout
        # (a minute here) would find the death.
        from repro.sweep.cluster import backend

        serve = backend._worker_main

        def first_dies(*args):
            try:
                os.close(os.open(tmp_path / "dead", os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                return serve(*args)
            os._exit(0)

        monkeypatch.setattr(backend, "_worker_main", first_dies)
        grid = fig3_grid()
        recorder = CountersRecorder()
        started = time.monotonic()
        got = backend.run_grid_columns(
            grid, list(grid), config=_CONFIG, directory=DirectoryState.cold(),
            jobs=2, service=EvaluationService(), recorder=recorder,
            options=ClusterOptions(heartbeat_timeout_seconds=60.0),
        )
        assert time.monotonic() - started < 30.0
        assert got == SweepRunner(EvaluationService()).run_columns(grid)
        assert recorder.snapshot()["counters"]["cluster.chunks.requeued_count"] >= 1
