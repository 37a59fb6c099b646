"""Wall-time benchmarks of building :class:`~repro.memsim.spec.StreamSpec`.

Grid builders, serve requests, the SSB cost model and perfbench's grid
generator build stream specs by the thousand, so the cost of one spec is
a layer number of its own. Each bench builds ``N_SPECS`` specs — through
the constructor, and through ``with_`` from a fixed base — and checks
them against :func:`dataclasses.replace`, so a faster build that changes
a field, the hash or the validation fails here.
"""

from dataclasses import replace

from repro.memsim import Layout, Op, StreamSpec

#: Specs built per timed round: one perfbench ``sweep`` grid's worth of
#: single-stream perturbations is a few thousand.
N_SPECS = 2_000

#: (threads, access size) pairs the benches cycle through.
SHAPES = tuple(
    (1 + i % 36, 64 * (1 + i % 256)) for i in range(N_SPECS)
)


def test_construct(benchmark):
    """``StreamSpec(...)`` with two keyword fields beyond the defaults."""

    def build() -> list[StreamSpec]:
        return [
            StreamSpec(op=Op.READ, threads=threads, access_size=size)
            for threads, size in SHAPES
        ]

    built = benchmark(build)
    assert len(built) == N_SPECS
    assert built[-1] == StreamSpec(op=Op.READ, threads=SHAPES[-1][0], access_size=SHAPES[-1][1])
    benchmark.extra_info["specs"] = N_SPECS


def test_with(benchmark):
    """``with_`` replacing two fields, as a sweep's perturbation does."""
    base = StreamSpec(op=Op.WRITE, threads=4, layout=Layout.GROUPED, target_socket=1)

    def build() -> list[StreamSpec]:
        return [base.with_(threads=threads, access_size=size) for threads, size in SHAPES]

    built = benchmark(build)
    expected = [replace(base, threads=threads, access_size=size) for threads, size in SHAPES]
    assert built == expected
    assert [hash(spec) for spec in built] == [hash(spec) for spec in expected]
    benchmark.extra_info["specs"] = N_SPECS
