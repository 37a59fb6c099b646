"""Per-family bit-identity suites for the widened batched kernel.

The first-generation kernel priced only plain pinned near-socket
sequential points; everything else fell back to the scalar evaluator.
This suite pins the widened contract family by family: random-pattern,
cross-socket (remote), unpinned, fsdax, and multi-stream points — plus
arbitrary combinations — are all priced on the vector fast path and
remain bit-identical to per-point ``evaluate``, including recorder
emission. The residual fallback set (``classify_point``) is pinned to
genuinely unpriceable points only, and every fallback is observable via
the ``sweep.vector.fallback_count`` counter family.
"""

import dataclasses
import math
import random

import pytest

from repro.errors import GridPointError, TopologyError, WorkloadError
from repro.memsim import (
    DaxMode,
    DirectoryState,
    Layout,
    MediaKind,
    Op,
    Pattern,
    PinningPolicy,
    StreamSpec,
    eval_context,
    evaluate,
    paper_config,
)
from repro.memsim import evaluation, mixed
from repro.memsim.config import MachineConfig
from repro.memsim.kernels import (
    FALLBACK_REASONS,
    classify_point,
    evaluate_points_columns,
)
from repro.memsim.topology import paper_server
from repro.obs import CountersRecorder
from repro.sweep import EvaluationService
from tests.memsim.test_kernels import (
    THREADS,
    assert_identical,
    grid_columns,
    sample_grid,
)

SIZES = (64, 128, 256, 512, 1024, 4096, 16384)
REGIONS = (1 << 28, 1 << 30, 16 << 30, 70_000_000_000)


def _base(rng: random.Random) -> StreamSpec:
    return StreamSpec(
        op=rng.choice((Op.READ, Op.WRITE)),
        threads=rng.choice(THREADS),
        access_size=rng.choice(SIZES),
        media=rng.choice((MediaKind.PMEM, MediaKind.PMEM, MediaKind.DRAM)),
        layout=rng.choice((Layout.INDIVIDUAL, Layout.GROUPED)),
        region_bytes=rng.choice(REGIONS),
    )


def random_point(rng: random.Random) -> tuple[StreamSpec, ...]:
    """Random-pattern streams, optionally also far or unpinned."""
    spec = _base(rng).with_(pattern=Pattern.RANDOM)
    if rng.random() < 0.3:
        spec = spec.with_(issuing_socket=rng.choice((0, 1)))
        spec = spec.with_(target_socket=1 - spec.issuing_socket)
    if rng.random() < 0.3:
        spec = spec.with_(pinning=PinningPolicy.NONE)
    return (spec,)


def remote_point(rng: random.Random) -> tuple[StreamSpec, ...]:
    """Cross-socket streams in both directions, both media, both ops."""
    issuing = rng.choice((0, 1))
    return (_base(rng).with_(issuing_socket=issuing, target_socket=1 - issuing),)


def unpinned_point(rng: random.Random) -> tuple[StreamSpec, ...]:
    """``PinningPolicy.NONE`` streams, optionally far."""
    spec = _base(rng).with_(pinning=PinningPolicy.NONE)
    if rng.random() < 0.3:
        spec = spec.with_(issuing_socket=0, target_socket=1)
    return (spec,)


def fsdax_point(rng: random.Random) -> tuple[StreamSpec, ...]:
    """fsdax PMEM streams across region sizes, prefaulted or cold."""
    spec = _base(rng).with_(
        media=MediaKind.PMEM,
        dax_mode=DaxMode.FSDAX,
        prefaulted=rng.random() < 0.3,
    )
    if rng.random() < 0.25:
        spec = spec.with_(pattern=Pattern.RANDOM)
    return (spec,)


def multi_point(rng: random.Random) -> tuple[StreamSpec, ...]:
    """Two- and three-stream points whose members span all families."""
    streams = []
    for _ in range(rng.choice((2, 2, 3))):
        spec = _base(rng)
        roll = rng.random()
        if roll < 0.2:
            spec = spec.with_(pattern=Pattern.RANDOM)
        elif roll < 0.4:
            issuing = rng.choice((0, 1))
            spec = spec.with_(issuing_socket=issuing, target_socket=1 - issuing)
        elif roll < 0.55:
            spec = spec.with_(pinning=PinningPolicy.NONE)
        elif roll < 0.7 and spec.media is MediaKind.PMEM:
            spec = spec.with_(dax_mode=DaxMode.FSDAX)
        streams.append(spec)
    return tuple(streams)


FAMILIES = {
    "random": random_point,
    "remote": remote_point,
    "unpinned": unpinned_point,
    "fsdax": fsdax_point,
    "multi": multi_point,
}


def family_grid(family: str, seed: int, n: int) -> list[tuple[StreamSpec, ...]]:
    rng = random.Random(seed)
    sampler = FAMILIES[family]
    return [sampler(rng) for _ in range(n)]


class TestFamilyBitIdentity:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_cold_directory(self, family):
        config = paper_config()
        context = eval_context(config)
        points = family_grid(family, seed=0xC0FFEE, n=48)
        assert all(classify_point(context, p) is None for p in points)
        state = DirectoryState.cold()
        batched = grid_columns(context, points, state).views()
        assert len(batched) == len(points)
        for streams, got in zip(points, batched):
            assert_identical(got, evaluate(config, streams, state, context=context))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_warm_directory(self, family):
        # Far reads consult directory warmth; every family must price
        # identically against a fully warm directory too.
        config = paper_config()
        context = eval_context(config)
        warm = DirectoryState.warm(config.topology)
        points = family_grid(family, seed=1879, n=32)
        batched = grid_columns(context, points, warm).views()
        for streams, got in zip(points, batched):
            assert_identical(got, evaluate(config, streams, warm, context=context))

    def test_ablation_configs(self):
        # The kernel reads calibration and toggles off the shared
        # context; the what-if ablations must not break bit-identity.
        for toggles in (
            {"prefetcher_enabled": False},
            {"write_combining_enabled": False},
        ):
            config = MachineConfig(**toggles)
            context = eval_context(config)
            state = DirectoryState.cold()
            for family in sorted(FAMILIES):
                points = family_grid(family, seed=52, n=8)
                for streams, got in zip(
                    points, grid_columns(context, points, state).views()
                ):
                    assert_identical(
                        got, evaluate(config, streams, state, context=context)
                    )


class TestFamilyEmissionParity:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_grid_recorder_matches_scalar(self, family):
        # Deferred emission replays probes from the columns in point
        # order; counter folds are order-sensitive at the last ulp, so
        # snapshots must be byte-identical, family by family. Both sides
        # go through one uncached service, so they carry the same
        # ``sweep.cache.*`` tallies too.
        config = paper_config()
        service = EvaluationService(memoize=False)
        points = family_grid(family, seed=31337, n=24)
        state = DirectoryState.cold()
        grid_rec, scalar_rec = CountersRecorder(), CountersRecorder()
        service.evaluate_grid_columns(config, points, state, recorder=grid_rec)
        for streams in points:
            service.evaluate(config, streams, state, recorder=scalar_rec)
        assert grid_rec.snapshot() == scalar_rec.snapshot()

    def test_deferred_emit_is_callable_out_of_band(self):
        # The columns API hands emission to the caller: emitting later
        # (the sweep service defers until after cache bookkeeping) must
        # produce the same snapshot as inline per-point emission.
        config = paper_config()
        context = eval_context(config)
        points = family_grid("multi", seed=9, n=12)
        state = DirectoryState.cold()
        columns, emit = evaluate_points_columns(context, points, state)
        deferred, inline = CountersRecorder(), CountersRecorder()
        for i in range(len(points)):
            emit(deferred, i)
        for streams in points:
            evaluate(config, streams, state, recorder=inline, context=context)
        assert deferred.snapshot() == inline.snapshot()


def narrow_upi_config() -> MachineConfig:
    """The paper machine with a UPI narrow enough for one stream to fill."""
    cal = paper_config().calibration
    return MachineConfig(calibration=dataclasses.replace(
        cal, upi=dataclasses.replace(cal.upi, raw_per_direction=12.0)
    ))


def single_points() -> list[tuple[StreamSpec, ...]]:
    """Single-stream points: near and far, DRAM and PMEM, read and write."""
    points = []
    for media in (MediaKind.DRAM, MediaKind.PMEM):
        for op in (Op.READ, Op.WRITE):
            for target in (0, 1):
                for threads in (4, 18):
                    points.append((StreamSpec(
                        op=op, threads=threads, access_size=4096, media=media,
                        issuing_socket=0, target_socket=target,
                    ),))
    points.append((points[0][0].with_(pattern=Pattern.RANDOM, target_socket=1),))
    return points


def row_repr(columns, row: int) -> str:
    """Row ``row`` of ``columns`` as exact text: ``repr`` round-trips
    every float, so equal text means bit-equal rows."""
    lo, hi = columns.offsets[row], columns.offsets[row + 1]
    return repr((
        columns.specs[lo:hi],
        columns.gbps[lo:hi],
        columns.solo_gbps[lo:hi],
        columns.stream_notes[lo:hi],
        columns.point_counters(row),
        columns.counter_notes[row],
    ))


R, W = Op.READ, Op.WRITE
PMEM, DRAM = MediaKind.PMEM, MediaKind.DRAM
STATES = {
    "cold": lambda config: DirectoryState.cold(),
    "warm": lambda config: DirectoryState.warm(config.topology),
}
NOTE = {
    "prefetch": "prefetcher tracks multiple streams",
    "mixed": "mixed read/write interference",
    "shared_read": "near+far readers on one target: coherence writes + RPQ pollution",
    "shared_write": "near+far writers on one target PMEM",
    "far_far": "both sockets read far: mutual queue pollution",
    "upi": "UPI direction saturated",
    "package": "dual-socket DRAM package efficiency",
}


def stream(op, issuing, target, media=PMEM, threads=8, **fields):
    return StreamSpec(
        op=op, threads=threads, media=media,
        issuing_socket=issuing, target_socket=target, **fields,
    )


#: A point the scalar stage prices: readers and writers on both sockets.
FOUR_STREAMS = (
    stream(R, 0, 0), stream(R, 1, 0), stream(W, 1, 1, DRAM), stream(R, 0, 1, DRAM),
)


def assert_matches_evaluate(context, points, state):
    """Every row of the batch equals per-point ``evaluate`` of its point:
    stream and counter floats by hex, notes, ``directory_after``, and
    the recorder snapshot its ``emit`` replay leaves."""
    columns, emit = evaluate_points_columns(context, points, state)
    assert len(columns) == len(points)
    for i, streams in enumerate(points):
        inline, replayed = CountersRecorder(), CountersRecorder()
        want = evaluate(
            context.config, streams, state, recorder=inline, context=context
        )
        assert_identical(columns.view(i), want)
        assert columns.counter_notes[i] == tuple(want.counters.notes)
        emit(replayed, i)
        assert replayed.snapshot() == inline.snapshot()
    return columns


def with_calibration(group: str, **fields) -> MachineConfig:
    """The paper machine with fields of one calibration group replaced."""
    cal = paper_config().calibration
    return MachineConfig(calibration=dataclasses.replace(
        cal, **{group: dataclasses.replace(getattr(cal, group), **fields)}
    ))


def solo_total(state, streams) -> float:
    """``sum()`` of the streams' bandwidths before any interaction."""
    ev = evaluation._Evaluator(eval_context(paper_config()), state)
    return sum(ev._solo(spec).gbps for spec in streams)


#: Interactions without a numeric threshold, each with a point on
#: either side of its condition: ``(point, note, fires)``.
CONDITION_CASES = {
    "prefetch-one-socket": ((stream(R, 0, 0), stream(R, 0, 0, threads=4)), "prefetch", True),
    "prefetch-two-sockets": ((stream(R, 0, 0), stream(R, 1, 1)), "prefetch", False),
    "prefetch-one-random": (
        (stream(R, 0, 0), stream(R, 0, 0, pattern=Pattern.RANDOM)), "prefetch", False,
    ),
    "mixed-one-target": ((stream(W, 0, 0), stream(R, 0, 0)), "mixed", True),
    "mixed-two-targets": ((stream(R, 0, 0), stream(W, 0, 1)), "mixed", False),
    "mixed-two-media": ((stream(R, 0, 0), stream(W, 0, 0, DRAM)), "mixed", False),
    "shared-dram-write-is-a-no-op": (
        (stream(W, 0, 0, DRAM, 36), stream(W, 1, 0, DRAM, 36)), "shared_write", False,
    ),
    "far-far-one-direction": ((stream(R, 0, 1), stream(R, 0, 1, threads=4)), "far_far", False),
    "package-two-sockets": (
        (stream(R, 0, 0, DRAM, 18), stream(R, 1, 1, DRAM, 18)), "package", True,
    ),
    "package-one-far": ((stream(R, 0, 0, DRAM), stream(R, 1, 0, DRAM)), "package", False),
    "package-pmem": ((stream(R, 0, 0), stream(R, 1, 1)), "package", False),
    # Far payloads flowing both ways: each direction's UPI utilization
    # carries the request traffic of the other's payload.
    "mixed-far-both-ways": ((stream(R, 0, 1), stream(W, 0, 1)), "mixed", True),
}

#: Capped interactions: ``(point, cap, group, note)``. ``cap`` names the
#: calibration field (``group.field``) or, for ``upi``, the context's
#: ``upi_data_cap``; ``group`` lists the streams whose pre-interaction
#: total meets it.
THRESHOLD_CASES = {
    "shared-read-pmem": (
        (stream(R, 0, 0, threads=18), stream(R, 1, 0, threads=18)),
        "pmem.shared_target_read_max", (0, 1), "shared_read",
    ),
    "shared-read-dram": (
        (stream(R, 0, 0, DRAM, 18), stream(R, 1, 0, DRAM, 18)),
        "dram.shared_target_read_max", (0, 1), "shared_read",
    ),
    "shared-write-pmem": (
        (stream(W, 0, 0, threads=4), stream(W, 1, 0, threads=4)),
        "pmem.mixed_socket_write_max", (0, 1), "shared_write",
    ),
    "far-far-pmem": (
        (stream(R, 0, 1), stream(R, 1, 0)), "pmem.far_far_read_per_socket", (0,), "far_far",
    ),
    "far-far-dram": (
        (stream(R, 0, 1, DRAM), stream(R, 1, 0, DRAM)),
        "dram.far_far_read_per_socket", (0,), "far_far",
    ),
    "upi-one-way": ((stream(R, 0, 1), stream(W, 1, 0)), "upi", (0, 1), "upi"),
    "upi-one-far": ((stream(R, 0, 0), stream(W, 0, 1)), "upi", (1,), "upi"),
}

#: The two-stream shapes of the ``sweep`` benchmark grid, by the
#: interactions a point of the shape can trigger.
SHAPES = {
    "prefetch+multi-issuer+far": (stream(R, 0, 0, DRAM, 17), stream(R, 1, 0, DRAM, 33)),
    "multi-issuer+far": (stream(W, 0, 0, threads=29), stream(W, 1, 0, threads=18)),
    "prefetch+multi-issuer": (stream(R, 0, 0, DRAM, 4), stream(R, 1, 1, DRAM, 17)),
    "prefetch+multi-issuer+far-far": (stream(R, 0, 1, threads=1), stream(R, 1, 0, threads=4)),
    "mixed-only": (stream(W, 0, 0, threads=16), stream(R, 0, 0, threads=9)),
    "multi-issuer": (stream(W, 0, 0, threads=30), stream(W, 1, 1, threads=22)),
}


def fired(columns, row: int, note: str) -> list[bool]:
    lo, hi = columns.offsets[row], columns.offsets[row + 1]
    return [NOTE[note] in notes for notes in columns.stream_notes[lo:hi]]


@pytest.mark.parametrize("state_name", sorted(STATES))
class TestTwoStreamStage:
    """Two-stream points priced as pairs equal per-point ``evaluate``,
    interaction by interaction and on both sides of each threshold."""

    @pytest.mark.parametrize("case", sorted(CONDITION_CASES))
    def test_condition(self, state_name, case):
        point, note, fires = CONDITION_CASES[case]
        context = eval_context(paper_config())
        columns = assert_matches_evaluate(context, [point], STATES[state_name](context.config))
        assert fired(columns, 0, note) == [fires, fires]

    @pytest.mark.parametrize("side", ["below", "equal", "above"])
    @pytest.mark.parametrize("case", sorted(THRESHOLD_CASES))
    def test_threshold(self, state_name, case, side):
        # The cap is set to the group's pre-interaction total, or one ulp
        # either side of it: only a total above the cap fires.
        point, cap_name, group, note = THRESHOLD_CASES[case]
        state = STATES[state_name](paper_config())
        total = solo_total(state, [point[k] for k in group])
        cap = {
            "below": math.nextafter(total, 0.0),
            "equal": total,
            "above": math.nextafter(total, math.inf),
        }[side]
        if cap_name == "upi":
            context = dataclasses.replace(eval_context(paper_config()), upi_data_cap=cap)
        else:
            calibration_group, field = cap_name.split(".")
            context = eval_context(with_calibration(calibration_group, **{field: cap}))
        columns = assert_matches_evaluate(context, [point], state)
        expected = [k in group and side == "below" for k in range(len(point))]
        if case.startswith("far-far"):
            # Both far readers are alike, so each meets its own cap.
            assert solo_total(state, point[1:]) == total
            expected = [side == "below"] * 2
        assert fired(columns, 0, note) == expected

    @pytest.mark.parametrize(
        ("media", "read_threads", "write_threads", "over"),
        [
            (PMEM, 8, 8, False),
            (PMEM, 18, 1, False),  # read demand exactly 1.0
            (DRAM, 18, 1, True),
            (DRAM, 18, 18, True),
            (DRAM, 30, 4, False),
        ],
    )
    def test_mixed_capacity(self, state_name, media, read_threads, write_threads, over):
        # ``mixed.resolve`` rescales both sides when the pair would use
        # more than one device's time; check each case's side of that.
        context = eval_context(paper_config())
        state = STATES[state_name](context.config)
        point = (
            stream(R, 0, 0, media, read_threads),
            stream(W, 0, 0, media, write_threads),
        )
        ev = evaluation._Evaluator(context, state)
        reads, writes = (ev._solo(spec).gbps for spec in point)
        params = context.mixed_params[media]
        read_factor, write_factor = mixed.interference_factors(
            None, media, reads, writes, params=params
        )
        utilization = (
            reads * read_factor / params.read_max_gbps
            + writes * write_factor / params.write_max_gbps
        )
        assert (utilization > 1.0) is over
        columns = assert_matches_evaluate(context, [point], state)
        assert fired(columns, 0, "mixed") == [True, True]

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_sweep_shape(self, state_name, shape):
        context = eval_context(paper_config())
        assert_matches_evaluate(context, [SHAPES[shape]], STATES[state_name](context.config))

    def test_batch_of_one_two_and_four_stream_points(self, state_name):
        # Rows land in point order whatever stage priced them.
        context = eval_context(narrow_upi_config())
        singles = single_points()
        pairs = [SHAPES[name] for name in sorted(SHAPES)]
        pairs += [case[0] for case in THRESHOLD_CASES.values()]
        points = []
        for k, single in enumerate(singles):
            points.append(single)
            points.append(pairs[k % len(pairs)])
            if k == len(singles) // 2:
                points.append(FOUR_STREAMS)
        assert_matches_evaluate(context, points, STATES[state_name](context.config))


class TestMixedBatch:
    """Single-stream rows price the same alone or beside multi-stream points."""

    CONFIGS = {"paper": paper_config, "narrow-upi": narrow_upi_config}

    def mixed(self):
        singles = single_points()
        multis = family_grid("multi", seed=4242, n=len(singles) + 1)
        # multi, single, multi, single, ..., multi: every single sits
        # between two multi-stream points.
        points = [multis[0]]
        for single, multi in zip(singles, multis[1:]):
            points += [single, multi]
        return singles, points

    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_single_rows_are_byte_identical(self, config_name, warm):
        config = self.CONFIGS[config_name]()
        context = eval_context(config)
        state = DirectoryState.warm(config.topology) if warm else DirectoryState.cold()
        singles, points = self.mixed()
        alone, alone_emit = evaluate_points_columns(context, singles, state)
        mixed, mixed_emit = evaluate_points_columns(context, points, state)
        if config_name == "narrow-upi":
            assert any(
                "UPI direction saturated" in notes for notes in alone.stream_notes
            )
        for k in range(len(singles)):
            row = 2 * k + 1
            assert mixed.specs[mixed.offsets[row]] is singles[k][0]
            assert row_repr(mixed, row) == row_repr(alone, k), singles[k]
            assert mixed.directory_after[row] == alone.directory_after[k]
            one, other = CountersRecorder(), CountersRecorder()
            alone_emit(one, k)
            mixed_emit(other, row)
            assert one.snapshot() == other.snapshot(), singles[k]
        for i, streams in enumerate(points):
            assert_identical(
                mixed.view(i), evaluate(config, streams, state, context=context)
            )

    def test_emit_replays_in_point_order(self):
        config = narrow_upi_config()
        context = eval_context(config)
        state = DirectoryState.warm(config.topology)
        _, points = self.mixed()
        _, emit = evaluate_points_columns(context, points, state)
        replayed, inline = CountersRecorder(), CountersRecorder()
        for i in range(len(points)):
            emit(replayed, i)
        for streams in points:
            evaluate(config, streams, state, recorder=inline, context=context)
        assert replayed.snapshot() == inline.snapshot()

    def test_scalar_stage_takes_only_3_plus_stream_points(self, monkeypatch):
        # One- and two-stream points are priced columnar; only points of
        # three or more streams rebuild solos for the scalar methods.
        from repro.memsim.kernels import analytic

        seen: list[int] = []
        scalar_rows = analytic._scalar_rows

        def spy(ctx, specs, offsets, points, flat, directory):
            seen.extend(points)
            return scalar_rows(ctx, specs, offsets, points, flat, directory)

        monkeypatch.setattr(analytic, "_scalar_rows", spy)
        _, points = self.mixed()
        points.append(FOUR_STREAMS)
        evaluate_points_columns(eval_context(paper_config()), points, DirectoryState.cold())
        assert seen == [i for i, p in enumerate(points) if len(p) >= 3]
        assert seen[-1] == len(points) - 1
        assert any(len(p) == 2 for p in points)


class TestClassifyPoint:
    def test_empty_point_is_empty(self):
        context = eval_context(paper_config())
        assert classify_point(context, ()) == "empty"

    def test_unknown_socket_is_socket(self):
        context = eval_context(paper_config())
        spec = StreamSpec(op=Op.READ, threads=4)
        assert classify_point(context, (spec.with_(target_socket=9),)) == "socket"
        assert classify_point(context, (spec.with_(issuing_socket=9),)) == "socket"

    def test_pmem_on_pmemless_socket_is_media(self):
        # A topology with no PMEM behind socket 1: PMEM streams that
        # target it are unpriceable (no interleave map), DRAM streams
        # stay on the fast path.
        topo = paper_server()
        stripped = dataclasses.replace(
            topo,
            dimms=tuple(
                d
                for d in topo.dimms
                if not (d.socket_id == 1 and d.kind is MediaKind.PMEM)
            ),
        )
        stripped.validate()
        context = eval_context(MachineConfig(topology=stripped))
        pmem = StreamSpec(op=Op.READ, threads=4, media=MediaKind.PMEM)
        dram = pmem.with_(media=MediaKind.DRAM)
        assert classify_point(context, (pmem.with_(target_socket=1),)) == "media"
        assert (
            classify_point(
                context, (pmem.with_(target_socket=1, pattern=Pattern.RANDOM),)
            )
            == "media"
        )
        assert classify_point(context, (pmem,)) is None
        assert classify_point(context, (dram.with_(target_socket=1),)) is None


class TestFallbackObservability:
    def assert_fallback_counted(self, point, reason, raises):
        assert reason in FALLBACK_REASONS
        context = eval_context(paper_config())
        eligible = (StreamSpec(op=Op.READ, threads=4),)
        recorder = CountersRecorder()
        with pytest.raises(GridPointError) as excinfo:
            grid_columns(context, [eligible, point], recorder=recorder)
        assert excinfo.value.index == 1
        assert isinstance(excinfo.value.original, raises)
        counters = recorder.snapshot()["counters"]
        assert counters["sweep.vector.fallback_count"] == 1
        assert counters[f"sweep.vector.fallback.{reason}_count"] == 1

    def test_empty_point_counts_before_raising(self):
        self.assert_fallback_counted((), "empty", WorkloadError)

    def test_unknown_socket_counts_before_raising(self):
        bad = (StreamSpec(op=Op.READ, threads=4, target_socket=9),)
        self.assert_fallback_counted(bad, "socket", TopologyError)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_families_never_fall_back(self, family):
        context = eval_context(paper_config())
        points = family_grid(family, seed=77, n=16)
        recorder = CountersRecorder()
        grid_columns(context, points, recorder=recorder)
        counters = recorder.snapshot()["counters"]
        assert "sweep.vector.fallback_count" not in counters
