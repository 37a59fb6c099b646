"""Batched analytic kernels are bit-identical to per-point ``evaluate``.

The vector backend's whole value proposition rests on exact equality:
the batched grid path (``EvaluationService.evaluate_grid_columns`` over
the ``evaluate_points_columns`` kernel) may share setup across points
and compute in NumPy arrays, but every observable of every result — bandwidth floats, stream
notes, performance counters, the directory state — must equal the scalar
evaluator's bit for bit, so cached entries and golden files are
interchangeable between backends. These property tests draw seeded
random grids spanning every point family the kernel prices — plain
sequential, random-pattern, cross-socket, unpinned, fsdax, and
multi-stream — and compare everything.
"""

import dataclasses
import random

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
from repro.memsim.kernels import classify_point, evaluate_points_columns
from repro.obs import CountersRecorder
from repro.sweep import EvaluationService

THREADS = (1, 2, 4, 8, 18, 24, 36)
SIZES = (64, 128, 256, 1024, 4096, 16384)


def sample_point(rng: random.Random) -> tuple[StreamSpec, ...]:
    """One random sweep point; ~1 in 3 lands off the plain-sequential path."""
    spec = StreamSpec(
        op=rng.choice((Op.READ, Op.WRITE)),
        threads=rng.choice(THREADS),
        access_size=rng.choice(SIZES),
        media=rng.choice((MediaKind.PMEM, MediaKind.PMEM, MediaKind.DRAM)),
        layout=rng.choice((Layout.INDIVIDUAL, Layout.GROUPED)),
    )
    roll = rng.random()
    if roll < 0.08:
        spec = spec.with_(pattern=Pattern.RANDOM)
    elif roll < 0.16:
        spec = spec.with_(issuing_socket=0, target_socket=1)
    elif roll < 0.22:
        spec = spec.with_(pinning=PinningPolicy.NONE)
    elif roll < 0.28 and spec.media is MediaKind.PMEM:
        spec = spec.with_(dax_mode=DaxMode.FSDAX)
    elif roll < 0.34:
        other = StreamSpec(
            op=Op.WRITE if spec.op is Op.READ else Op.READ,
            threads=rng.choice(THREADS),
            access_size=rng.choice(SIZES),
        )
        return (spec, other)
    return (spec,)


def sample_grid(seed: int, n: int) -> list[tuple[StreamSpec, ...]]:
    rng = random.Random(seed)
    return [sample_point(rng) for _ in range(n)]


def grid_columns(context, points, directory=None, *, recorder=None):
    """The batched grid path, uncached: kernel plus scalar fallback."""
    return EvaluationService(memoize=False).evaluate_grid_columns(
        context.config, points, directory, recorder=recorder
    )


def assert_identical(got, want):
    """Full bit-identity: floats by hex, counters, notes, directory."""
    assert got == want
    assert len(got.streams) == len(want.streams)
    for g, w in zip(got.streams, want.streams):
        assert g.gbps.hex() == w.gbps.hex()
        assert g.solo_gbps.hex() == w.solo_gbps.hex()
        assert g.notes == w.notes
    got_counters, want_counters = got.counters, want.counters
    for field in dataclasses.fields(got_counters):
        gv = getattr(got_counters, field.name)
        wv = getattr(want_counters, field.name)
        if isinstance(gv, float):
            assert gv.hex() == wv.hex(), field.name
        else:
            assert gv == wv, field.name
    assert got.directory_after == want.directory_after


class TestGridBitIdentity:
    def test_random_grid_matches_scalar_point_by_point(self):
        config = paper_config()
        context = eval_context(config)
        points = sample_grid(seed=20260807, n=96)
        state = DirectoryState.cold()
        batched = grid_columns(context, points, state).views()
        assert len(batched) == len(points)
        for streams, got in zip(points, batched):
            want = evaluate(config, streams, state, context=context)
            assert_identical(got, want)

    def test_grid_spans_every_family_and_all_are_eligible(self):
        # The property above is only meaningful if the sample actually
        # exercises every point family — and every one of them must now
        # go through the batched kernel, not the scalar fallback.
        context = eval_context(paper_config())
        points = sample_grid(seed=20260807, n=96)
        flat = [s for p in points for s in p]
        assert any(s.pattern is Pattern.RANDOM for s in flat)
        assert any(s.far for s in flat)
        assert any(s.pinning is PinningPolicy.NONE for s in flat)
        assert any(s.dax_mode is DaxMode.FSDAX for s in flat)
        assert any(len(p) > 1 for p in points)
        eligible = sum(1 for p in points if classify_point(context, p) is None)
        assert eligible == len(points)

    def test_warm_directory_matches_scalar(self):
        config = paper_config()
        context = eval_context(config)
        warm = DirectoryState.warm(config.topology)
        points = sample_grid(seed=7, n=32)
        batched = grid_columns(context, points, warm).views()
        for streams, got in zip(points, batched):
            assert_identical(got, evaluate(config, streams, warm, context=context))

    def test_results_in_input_order(self):
        config = paper_config()
        context = eval_context(config)
        read = (StreamSpec(op=Op.READ, threads=4),)
        write = (StreamSpec(op=Op.WRITE, threads=4),)
        results = grid_columns(context, [read, write, read]).views()
        assert results[0] == results[2]
        assert results[0].streams[0].spec.op is Op.READ
        assert results[1].streams[0].spec.op is Op.WRITE


class TestBatchKernel:
    def test_batch_matches_scalar_for_every_eligible_point(self):
        config = paper_config()
        context = eval_context(config)
        state = DirectoryState.cold()
        points = sample_grid(seed=99, n=96)
        specs = [p[0] for p in points if classify_point(context, p) is None]
        assert specs
        columns, _ = evaluate_points_columns(context, [(s,) for s in specs], state)
        batched = columns.views()
        for spec, got in zip(specs, batched):
            assert_identical(got, evaluate(config, (spec,), state, context=context))

    def test_empty_batch(self):
        context = eval_context(paper_config())
        columns, _ = evaluate_points_columns(context, [], DirectoryState.cold())
        assert len(columns) == 0
        assert len(grid_columns(context, [])) == 0


class TestObservabilityParity:
    def test_grid_emissions_match_scalar_exactly(self):
        # Counters fold float increments, so emission *order* matters at
        # the last ulp: the grid evaluator must emit in point order, not
        # batch-completion order, for snapshots to be byte-identical.
        # Both sides go through one uncached service, so both carry the
        # same ``sweep.cache.*`` tallies beside the evaluation probes.
        config = paper_config()
        service = EvaluationService(memoize=False)
        points = sample_grid(seed=3, n=48)
        state = DirectoryState.cold()
        grid_rec, scalar_rec = CountersRecorder(), CountersRecorder()
        service.evaluate_grid_columns(config, points, state, recorder=grid_rec)
        for streams in points:
            service.evaluate(config, streams, state, recorder=scalar_rec)
        assert grid_rec.snapshot() == scalar_rec.snapshot()


class TestEligibility:
    def test_plain_sequential_points_are_eligible(self):
        context = eval_context(paper_config())
        for op in (Op.READ, Op.WRITE):
            for media in (MediaKind.PMEM, MediaKind.DRAM):
                spec = StreamSpec(op=op, threads=8, media=media)
                assert classify_point(context, (spec,)) is None

    def test_former_fallback_shapes_are_now_eligible(self):
        # The families the first-generation kernel punted on — the whole
        # point of the widened fast path.
        context = eval_context(paper_config())
        base = StreamSpec(op=Op.READ, threads=8)
        assert classify_point(context, (base, base)) is None
        assert classify_point(context, (base.with_(pattern=Pattern.RANDOM),)) is None
        assert classify_point(context, (base.with_(target_socket=1),)) is None
        assert classify_point(context, (base.with_(pinning=PinningPolicy.NONE),)) is None
        assert classify_point(context, (base.with_(dax_mode=DaxMode.FSDAX),)) is None

    def test_points_the_scalar_evaluator_rejects_are_ineligible(self):
        # Eligibility must never claim a point the scalar path would
        # refuse: the fallback is what surfaces the real error.
        context = eval_context(paper_config())
        bad = StreamSpec(op=Op.READ, threads=8, target_socket=9, issuing_socket=9)
        assert classify_point(context, (bad,)) is not None
