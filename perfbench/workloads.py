"""The benchmark's four workloads and the oracles that check their outputs.

Each workload drives the program only through public entry points:

* ``reproduce`` — the 15 registered experiments, in registry order, on
  the default vector backend with a fresh default service per iteration:
  the work of ``repro run`` minus printing. The seed goes to the SSB
  generator of fig14 and table1 (``SsbRunner(seed=...)``); 2021, the
  default, is exactly ``repro run``.
* ``sweep`` — a seeded grid of distinct points evaluated cold through
  ``SweepRunner(backend="vector").run_columns``.
* ``disk_sweep`` — the same generator through a ``DiskCache``-backed
  service whose cache already holds a seeded half of the grid; every
  iteration starts from the same on-disk state.
* ``cluster`` — the same generator through
  ``SweepRunner(jobs=2, backend="cluster")`` with two locally forked
  workers.

``serve`` is deliberately absent: its requests wait out the configured
gather window, a wall-clock sleep, and the batch it then fires is the
kernel call ``sweep`` already measures.

Outputs are checked bit-exactly: reproductions against the first
iteration and the recorded digests of ``reference.json`` (fig14 and
table1 only at the seeds recorded there), grids against per-point
:func:`repro.memsim.evaluate` (floats compared by hex). Each experiment
or grid point that mismatches or raises is one failed operation. A grid
iteration that lacks its workload's defining property — ``disk_sweep``
serving other than its seeded half from disk, ``cluster`` not forking
its two workers — fails every point.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import shutil
import sys
import threading
import traceback
from collections.abc import Callable
from contextlib import AbstractContextManager
from pathlib import Path

from inputs import SSB_EXPERIMENTS, input_properties, make_grid
from tracer import EXPERIMENT_PREFIX, nullspan

HERE = Path(__file__).resolve().parent
#: Scratch space inside the checkout (listed in .gitignore).
WORK_ROOT = HERE.parent / ".perfbench"
REFERENCE = HERE / "reference.json"

Span = Callable[[str], AbstractContextManager[None]]


def _hexify(value: object) -> object:
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): _hexify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexify(v) for v in value]
    return value


def result_digest(result: object) -> str:
    """SHA-256 over an ``ExperimentResult``'s content, floats as hex."""
    payload = {
        "exp_id": result.exp_id,
        "title": result.title,
        "unit": result.unit,
        "series": _hexify(result.series),
        "comparisons": [
            [c.metric, _hexify(c.paper), _hexify(c.measured), c.unit]
            for c in result.comparisons
        ],
        "notes": list(result.notes),
    }
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def paper_log_error(results: list[object]) -> float:
    """Mean |ln(measured/paper)| over every comparison of ``results``."""
    errors = [abs(math.log(c.ratio)) for r in results for c in r.comparisons]
    return sum(errors) / len(errors)


def load_reference(path: Path) -> dict[str, dict]:
    """The recorded digests; an unreadable file yields an empty reference.

    ``experiments`` holds the 13 seed-independent experiments' digests,
    ``ssb`` one ``{exp_id: digest}`` entry per recorded seed (as a string)
    for the SSB experiments.
    """
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        return {"experiments": dict(data["experiments"]), "ssb": dict(data["ssb"])}
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print(f"perfbench: reference {path} unusable ({exc})", file=sys.stderr)
        return {"experiments": {}, "ssb": {}}


def ssb_runner(seed: int) -> object:
    """The SSB runner of fig14 and table1 at the benchmark's ``seed``."""
    from repro.ssb.runner import SsbRunner

    # NumPy seeds must be non-negative; the modulus keeps small seeds as they are.
    return SsbRunner(seed=seed % 2**32)


def _report(exc: BaseException) -> None:
    traceback.print_exception(exc, file=sys.stderr)


def _run_experiments(exp_ids: list[str], seed: int, span: Span) -> dict[str, object]:
    """Run ``exp_ids`` with a fresh default service; a raise is kept as the result."""
    from repro.experiments.registry import run_experiment
    from repro.sweep import EvaluationService, set_default_service

    previous = set_default_service(EvaluationService())
    results: dict[str, object] = {}
    try:
        for exp_id in exp_ids:
            with span(EXPERIMENT_PREFIX + exp_id):
                try:
                    kwargs = {"runner": ssb_runner(seed)} if exp_id in SSB_EXPERIMENTS else {}
                    results[exp_id] = run_experiment(exp_id, **kwargs)
                except Exception as exc:  # one failed operation, not a crash
                    _report(exc)
                    results[exp_id] = exc
    finally:
        set_default_service(previous)
    return results


class Workload:
    """One workload: set-up, a timed iteration, and the output check."""

    name = ""
    #: Modules imported before set-up, so lazy imports do not land in the
    #: first timed iteration.
    imports: tuple[str, ...] = ()
    #: Worker processes the program forks per iteration.
    workers = 0

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.scale = scale

    def setup(self) -> None:
        """Generate the inputs (timed, repeated; the last result is kept)."""

    def prepare_oracle(self) -> None:
        """Compute what outputs are checked against (outside every timer)."""

    def prepare(self) -> None:
        """Untimed per-iteration reset."""

    def iterate(self, span: Span) -> object:
        raise NotImplementedError

    def check(self, output: object) -> tuple[int, int]:
        """``(attempted, failed)`` operations of one iteration's output."""
        raise NotImplementedError

    def disk_bytes(self) -> int:
        """Bytes the disk cache grew by in the last iteration."""
        return 0

    def properties(self) -> dict[str, float]:
        return {}

    def notes(self) -> list[str]:
        """What the run's output check left out, one line each."""
        return []

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the run."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def paper_log_error(self) -> float:
        raise NotImplementedError

    def close(self) -> None:
        """Remove anything the workload left on disk."""


class Reproduce(Workload):
    name = "reproduce"
    imports = ("repro.experiments.registry", "repro.sweep", "repro.ssb.runner",
               "repro.memsim.kernels.analytic")

    def __init__(self, seed: int, scale: float = 1.0, reference: Path = REFERENCE) -> None:
        super().__init__(seed, scale)
        self.reference_path = reference
        self.reference: dict[str, dict] = {}
        self._first: dict[str, str | None] | None = None
        self._log_error = math.nan

    def setup(self) -> None:
        from repro.experiments.registry import all_experiment_ids

        self.exp_ids = all_experiment_ids()
        self.reference = load_reference(self.reference_path)

    def iterate(self, span: Span) -> object:
        return _run_experiments(self.exp_ids, self.seed, span)

    def check(self, output: object) -> tuple[int, int]:
        digests = {
            exp_id: None if isinstance(result, Exception) else result_digest(result)
            for exp_id, result in output.items()
        }
        if self._first is None:
            self._first = digests
            good = [r for r in output.values() if not isinstance(r, Exception)]
            if good:
                self._log_error = paper_log_error(good)
        failed = 0
        for exp_id in self.exp_ids:
            digest = digests.get(exp_id)
            wrong = digest is None or digest != self._first.get(exp_id)
            if exp_id not in self.unchecked():
                wrong = wrong or digest != self.recorded(exp_id)
            failed += wrong
        return len(self.exp_ids), failed

    def recorded(self, exp_id: str) -> str | None:
        """The reference digest of ``exp_id`` at this run's seed."""
        if exp_id in SSB_EXPERIMENTS:
            return self.reference["ssb"].get(str(self.seed), {}).get(exp_id)
        return self.reference["experiments"].get(exp_id)

    def unchecked(self) -> list[str]:
        """SSB experiments with no reference digest recorded at this seed."""
        seeded = str(self.seed) in self.reference["ssb"]
        return [] if seeded else [e for e in SSB_EXPERIMENTS if e in self.exp_ids]

    def notes(self) -> list[str]:
        if not self.unchecked():
            return []
        return [f"{', '.join(self.unchecked())}: no reference digest recorded at seed "
                f"{self.seed}; checked only against this run's first iteration"]

    def paper_log_error(self) -> float:
        return self._log_error


class GridWorkload(Workload):
    """A seeded grid through one sweep backend, checked per point."""

    points = 0
    imports = ("repro.sweep", "repro.memsim.kernels.analytic")

    def setup(self) -> None:
        n = max(20, round(self.points * self.scale))
        self.grid = make_grid(self.seed, n, name=self.name)

    def prepare_oracle(self) -> None:
        from repro.memsim import DirectoryState, evaluate, paper_config

        config, cold = paper_config(), DirectoryState.cold()
        self.oracle: list[str | None] = []
        for point in self.grid:
            try:
                self.oracle.append(evaluate(config, point.streams, cold).total_gbps.hex())
            except Exception as exc:  # the point is then failed by every iteration
                _report(exc)
                self.oracle.append(None)

    def runner(self) -> object:
        raise NotImplementedError

    def iterate(self, span: Span) -> object:
        from repro.errors import SweepError

        try:
            return self.runner().run_columns(self.grid)[1]
        except SweepError as exc:
            _report(exc)
            return exc

    def check(self, output: object) -> tuple[int, int]:
        from repro.memsim.kernels import ResultColumns

        broken = self.property_failure()
        if broken is not None:
            print(f"perfbench: {self.name}: {broken}; every point fails", file=sys.stderr)
            return len(self.grid), len(self.grid)
        partial = output if isinstance(output, ResultColumns) else getattr(output, "partial", None)
        totals = partial.total_gbps() if isinstance(partial, ResultColumns) else []
        wrong = sum(1 for got, want in zip(totals, self.oracle) if got.hex() != want)
        return len(self.grid), wrong + len(self.grid) - len(totals)

    def property_failure(self) -> str | None:
        """Why the last iteration lacked the workload's defining property, if it did."""
        return None

    def properties(self) -> dict[str, float]:
        return input_properties(self.grid)

    def paper_log_error(self) -> float:
        """Over the 13 bandwidth experiments: the model these grids price."""
        from repro.experiments.registry import all_experiment_ids

        ids = [e for e in all_experiment_ids() if e not in SSB_EXPERIMENTS]
        results = _run_experiments(ids, self.seed, nullspan)
        return paper_log_error([r for r in results.values() if not isinstance(r, Exception)])


class Sweep(GridWorkload):
    name = "sweep"
    points = 8000

    def runner(self) -> object:
        from repro.sweep import EvaluationService, SweepRunner

        return SweepRunner(EvaluationService(), backend="vector")


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


class DiskSweep(GridWorkload):
    name = "disk_sweep"
    points = 1000

    def setup(self) -> None:
        from repro.sweep import DiskCache, EvaluationService, SweepRunner
        from repro.workloads.grids import SweepGrid

        super().setup()
        self.root = WORK_ROOT / f"{self.name}-{self.seed}"
        self.pristine, self.work = self.root / "pristine", self.root / "work"
        shutil.rmtree(self.root, ignore_errors=True)
        rng = random.Random(self.seed)
        half = sorted(rng.sample(range(len(self.grid)), len(self.grid) // 2))
        self.on_disk = len(half)
        seeded = SweepGrid(f"{self.name}-seed", tuple(self.grid.points[i] for i in half))
        SweepRunner(EvaluationService(DiskCache(self.pristine)), backend="vector").run_columns(seeded)
        self.pristine_bytes = _tree_bytes(self.pristine)

    def prepare(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        shutil.copytree(self.pristine, self.work)

    def runner(self) -> object:
        from repro.sweep import DiskCache, EvaluationService, SweepRunner

        self.service = EvaluationService(DiskCache(self.work))
        return SweepRunner(self.service, backend="vector")

    def property_failure(self) -> str | None:
        hits = self.service.stats.disk_hits
        self.disk_hit_share = hits / len(self.grid)
        if hits != self.on_disk:
            return f"{hits} points served from disk, {self.on_disk} seeded there"
        return None

    def disk_bytes(self) -> int:
        return _tree_bytes(self.work) - self.pristine_bytes

    def properties(self) -> dict[str, float]:
        shares = super().properties()
        shares["seeded_on_disk_share"] = self.on_disk / len(self.grid)
        shares["disk_hit_share"] = self.disk_hit_share
        return shares

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


class _ForkWatch:
    """Counts this process's forks."""

    def __init__(self) -> None:
        self.forks = 0
        os.register_at_fork(before=self._before)

    def _before(self) -> None:
        self.forks += 1


def _children() -> list[int]:
    """Live child processes of this process's main thread."""
    with open(f"/proc/self/task/{os.getpid()}/children", encoding="ascii") as f:
        return [int(pid) for pid in f.read().split()]


def _uss_kib(pid: int) -> int:
    """Memory only ``pid`` maps: its private clean and dirty pages."""
    try:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as f:
            fields = dict(line.split(":", 1) for line in f if ":" in line)
    except OSError:  # the worker has just exited
        return 0
    return sum(int(fields.get(k, "0 kB").split()[0]) for k in ("Private_Clean", "Private_Dirty"))


_fork_watch: _ForkWatch | None = None
_USS_INTERVAL_S = 0.005


class Cluster(GridWorkload):
    """The grid through two locally forked cluster workers.

    The backend forks its local workers where the platform can (Linux
    does), so a fork hook counts them.
    """

    name = "cluster"
    points = 1000
    workers = 2
    imports = GridWorkload.imports + ("repro.sweep.cluster",)

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        global _fork_watch
        super().__init__(seed, scale)
        if _fork_watch is None:  # fork hooks cannot be unregistered: one per process
            _fork_watch = _ForkWatch()
        self.watch = _fork_watch

    def prepare(self) -> None:
        self._forks_before = self.watch.forks

    def runner(self) -> object:
        from repro.sweep import EvaluationService, SweepRunner

        return SweepRunner(EvaluationService(), jobs=self.workers, backend="cluster")

    def property_failure(self) -> str | None:
        forks = self.watch.forks - self._forks_before
        if forks != self.workers:
            return f"{forks} worker processes forked, {self.workers} expected"
        return None

    def peak_rss_mb(self) -> float:
        """The coordinator's peak plus each worker's peak unique memory.

        A forked worker's resident set counts the pages it shares with the
        coordinator; its own memory is its private pages (USS). One more
        iteration, untimed, samples each worker's USS every few
        milliseconds while it lives.
        """
        peaks: dict[int, int] = {}
        done = threading.Event()

        def sample() -> None:
            while not done.wait(_USS_INTERVAL_S):
                for pid in _children():
                    peaks[pid] = max(peaks.get(pid, 0), _uss_kib(pid))

        sampler = threading.Thread(target=sample)
        sampler.start()
        try:
            self.prepare()
            self.iterate(nullspan)
        finally:
            done.set()
            sampler.join()
        return super().peak_rss_mb() + sum(peaks.values()) / 1024


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Reproduce, Sweep, DiskSweep, Cluster)
}
