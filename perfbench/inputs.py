"""Seeded sweep-grid generator for the grid workloads, and its input report.

One generator feeds ``sweep``, ``disk_sweep`` and ``cluster``. Its points
are the traffic ``repro run`` sends, made distinct: it captures every
distinct point the 13 bandwidth experiments price (their figure grids and
their one-off queries alike), draws base points from that pool uniformly,
and gives each stream a seeded thread count and an access size near its
own (:func:`_perturb`). Everything else about a stream — pattern,
media, sockets, pinning, layout, dax mode, the number of streams — is
kept, so the grid's family shares are the experiments' own (see
:func:`input_properties` and the README). Every drawn point is one the
scalar evaluator prices without raising, so no operation of a grid
workload is expected to fail.
"""

from __future__ import annotations

import random

from repro.experiments.registry import all_experiment_ids, run_experiment
from repro.memsim import DaxMode
from repro.memsim.scheduler import PinningPolicy
from repro.memsim.spec import Pattern, StreamSpec
from repro.memsim.topology import MediaKind
from repro.sweep import EvaluationService, set_default_service
from repro.workloads.grids import SweepGrid, SweepPoint

#: Experiments whose results depend on the SSB generator's seed; the
#: other 13 are the bandwidth experiments.
SSB_EXPERIMENTS = ("fig14", "table1")

Streams = tuple[StreamSpec, ...]
#: Access sizes are whole cache lines.
_LINE = 64
#: Redraws of one base before it is given up for another.
_TRIES = 32


class _CapturingService(EvaluationService):
    """An evaluation service that remembers every distinct point it prices."""

    def __init__(self) -> None:
        super().__init__()
        self.points: dict[Streams, None] = {}

    def evaluate(self, config, streams, directory=None, **kwargs):
        self.points.setdefault(tuple(streams), None)
        return super().evaluate(config, streams, directory, **kwargs)

    def evaluate_grid_columns(self, config, points, directory=None, **kwargs):
        for streams in points:
            self.points.setdefault(tuple(streams), None)
        return super().evaluate_grid_columns(config, points, directory, **kwargs)


def experiment_points() -> list[Streams]:
    """Every distinct point the bandwidth experiments price, in first-use order."""
    service = _CapturingService()
    previous = set_default_service(service)
    try:
        for exp_id in all_experiment_ids():
            if exp_id not in SSB_EXPERIMENTS:
                run_experiment(exp_id)
    finally:
        set_default_service(previous)
    return list(service.points)


def _perturb(rng: random.Random, base: Streams, max_threads: int) -> Streams:
    """``base`` with each stream's thread count and access size redrawn.

    Threads are uniform over the pool's range; the access size is the
    stream's own scaled by ``2**u``, ``u`` uniform in [-1, 1], rounded to
    a whole number of cache lines.
    """
    out = []
    for s in base:
        threads = rng.randint(1, max_threads)
        lines = round(s.access_size * 2 ** rng.uniform(-1, 1) / _LINE)
        out.append(s.with_(threads=threads, access_size=max(1, lines) * _LINE))
    return tuple(out)


def make_grid(seed: int, points: int, name: str = "perfbench") -> SweepGrid:
    """``points`` distinct grid points drawn from ``random.Random(seed)``.

    A drawn point that repeats an earlier one is redrawn from the same
    base, so each base keeps its share of the pool.
    """
    pool = experiment_points()
    max_threads = max(s.threads for p in pool for s in p)
    rng = random.Random(seed)
    seen: set[Streams] = set()
    out: list[SweepPoint] = []
    while len(out) < points:
        base = rng.choice(pool)
        for _ in range(_TRIES):
            drawn = _perturb(rng, base, max_threads)
            if drawn not in seen:
                seen.add(drawn)
                out.append(SweepPoint(f"p{len(out)}", {}, drawn))
                break
    return SweepGrid(name, tuple(out))


def input_properties(grid: SweepGrid) -> dict[str, float]:
    """Measured share of the grid's points in each kernel family.

    A point counts towards a family when any of its streams belongs to
    it. ``duplicate_share`` is the share of points whose streams repeat
    an earlier point's.
    """
    families = {
        "multi_stream_share": lambda s: len(s) > 1,
        "random_share": lambda s: any(x.pattern is Pattern.RANDOM for x in s),
        "remote_share": lambda s: any(x.far for x in s),
        "unpinned_share": lambda s: any(x.pinning is PinningPolicy.NONE for x in s),
        "fsdax_share": lambda s: any(x.dax_mode is DaxMode.FSDAX for x in s),
        "dram_share": lambda s: any(x.media is MediaKind.DRAM for x in s),
    }
    n = len(grid)
    shares = {
        name: sum(1 for p in grid if test(p.streams)) / n
        for name, test in families.items()
    }
    shares["duplicate_share"] = 1 - len({p.streams for p in grid}) / n
    return shares
