"""Span tracing for the benchmark's traced run, installed from outside.

The timed runs execute the program untouched. The traced run wraps the
public functions of each layer (listed in :data:`TARGETS`) with a
recorder of spans: name, start, end, parent span, iteration id and a
work size (points, keys or rows). A wrapper is bound at *every* name its
callers look up: ``request_digest`` is imported by name into
``repro.sweep.service`` and ``repro.sweep.cluster.coordinator``, and
``generate`` into ``repro.ssb.runner``, so patching only the defining
module would miss those calls. :meth:`Tracer.uninstall` puts every
original back.

A layer's self time is its span's duration minus the time its child
spans cover. Spans nest strictly (only the main thread of the benchmark
process records; forked cluster workers and other threads call straight
through), so the self times of all spans in an iteration plus the
iteration root's own self time add up to the iteration's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import threading
import time
from collections.abc import Callable, Iterator
from pathlib import Path


def _arg(index: int, name: str) -> Callable[[tuple, dict], object]:
    def get(args: tuple, kwargs: dict) -> object:
        return args[index] if len(args) > index else kwargs[name]

    return get


def _len_of(index: int, name: str) -> Callable[[tuple, dict], int]:
    get = _arg(index, name)
    return lambda args, kwargs: len(get(args, kwargs))


def _index_key(args: tuple, kwargs: dict) -> str:
    """Identity of a built dimension index: table, key, attrs, index kind."""
    dim, key, attrs, profile = (
        _arg(i, n)(args, kwargs)
        for i, n in enumerate(("dim", "key_column", "attrs", "profile"))
    )
    return f"{dim.spec.name}|{key}|{','.join(attrs)}|{profile.index_kind.value}"


#: (module, attribute path, span name, work-size extractor, key extractor).
#: Method attribute paths are ``Class.method``; the extractors see the
#: wrapped call's ``(args, kwargs)`` (``self`` included for methods).
TARGETS: tuple[tuple[str, str, str, Callable | None, Callable | None], ...] = (
    ("repro.ssb.dbgen", "generate", "ssb.dbgen", None, None),
    ("repro.ssb.engine.executor", "SsbExecutor.execute", "ssb.engine.execute", None, None),
    ("repro.ssb.engine.operators", "build_dimension_index", "ssb.engine.index_build", None, _index_key),
    ("repro.ssb.engine.operators", "probe_dimension", "ssb.engine.probe", None, None),
    ("repro.ssb.hashindex.dash", "DashIndex.bulk_insert", "ssb.hashindex.dash.insert", _len_of(1, "keys"), None),
    ("repro.ssb.hashindex.dash", "DashIndex.bulk_probe", "ssb.hashindex.dash.probe", _len_of(1, "keys"), None),
    ("repro.ssb.hashindex.chained", "ChainedIndex.bulk_insert", "ssb.hashindex.chained.insert", _len_of(1, "keys"), None),
    ("repro.ssb.hashindex.chained", "ChainedIndex.bulk_probe", "ssb.hashindex.chained.probe", _len_of(1, "keys"), None),
    ("repro.ssb.costmodel", "SsbCostModel.price", "ssb.costmodel.price", None, None),
    ("repro.memsim.evaluation", "evaluate", "memsim.evaluation.evaluate", None, None),
    ("repro.memsim.kernels.analytic", "evaluate_points_columns", "memsim.kernels.grid", _len_of(1, "points"), None),
    ("repro.sweep.runner", "SweepRunner.run_columns", "sweep.runner.run_columns", None, None),
    ("repro.sweep.service", "EvaluationService.evaluate_grid_columns", "sweep.service.grid", _len_of(2, "points"), None),
    ("repro.sweep.service", "EvaluationService.evaluate", "sweep.service.evaluate", None, None),
    ("repro.sweep.cache", "request_digest", "sweep.cache.digest", None, None),
    ("repro.sweep.cache", "DiskCache.get_ref", "sweep.cache.disk.get", None, None),
    ("repro.sweep.cache", "DiskCache.put_columns", "sweep.cache.disk.put", _len_of(1, "digests"), None),
    ("repro.sweep.cluster.backend", "run_grid_columns", "sweep.cluster.run", None, None),
)

#: Span names the harness itself opens (the iteration root and one span
#: per reproduced experiment, ``experiments.<id>``).
ROOT = "iteration"
EXPERIMENT_PREFIX = "experiments."


def nullspan(name: str) -> contextlib.nullcontext:
    """The span callable of an untraced iteration: records nothing."""
    return contextlib.nullcontext()


class Span:
    """One recorded call; ``parent`` is the index of the enclosing span."""

    __slots__ = ("name", "start", "end", "parent", "iteration", "size", "key")

    def __init__(self, name: str, start: float, parent: int | None, iteration: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.iteration = iteration
        self.size = 0
        self.key: str | None = None

    def to_json(self) -> dict[str, object]:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.iteration = -1
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._thread = threading.get_ident()
        #: (owner, attribute, original) for every binding replaced.
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _recording(self) -> bool:
        return os.getpid() == self._pid and threading.get_ident() == self._thread

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self.iteration)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the harness around a call into the program."""
        if not self._recording():
            yield
            return
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, fn: Callable, name: str, size: Callable | None, key: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: object, **kwargs: object) -> object:
            if not tracer._recording():
                return fn(*args, **kwargs)
            work = size(args, kwargs) if size is not None else 0
            identity = key(args, kwargs) if key is not None else None
            span = tracer._open(name)
            span.size, span.key = work, identity
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)

        return traced

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every binding a caller can look it up by."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, path, name, size, key in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(original, name, size, key))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(original, name, size, key)
            for other in list(sys.modules.values()):
                if other is None or not other.__name__.startswith("repro"):
                    continue
                for attr, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, attr, original, wrapper)

    def _patch(self, owner: object, attr: str, original: object, wrapper: object) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span.to_json()) + "\n")

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]


def layer_metrics(
    tracer: Tracer,
    counters: dict[str, float],
    histograms: dict[str, dict[str, float]],
    *,
    untraced_wall_s: float,
    traced_wall_s: float,
    counted_wall_s: float,
    workers: int,
    disk_bytes: int,
) -> dict[str, float]:
    """Per-layer metrics, each a per-iteration mean over the traced iterations.

    Counts and seconds come from the spans. Cache, fallback and cluster
    figures come from the program's own counters: ``counters`` and
    ``histograms`` of a :class:`repro.obs.CountersRecorder` snapshot of
    one untraced iteration that took ``counted_wall_s``. ``disk_bytes``
    is what the disk cache grew by over the traced iterations, as the
    workload measured it.
    """
    iterations = len({s.iteration for s in tracer.spans if s.name == ROOT})
    per_iter = 1.0 / max(iterations, 1)
    calls: dict[str, int] = {}
    wall: dict[str, float] = {}
    self_s: dict[str, float] = {}
    size: dict[str, int] = {}
    index_keys: list[tuple[int, str]] = []
    for span, own in zip(tracer.spans, tracer.self_times()):
        name = span.name
        if name.startswith(EXPERIMENT_PREFIX):
            exp = name[len(EXPERIMENT_PREFIX):]
            group = exp if exp in ("fig14", "table1") else "bandwidth"
            wall[f"experiments.{group}"] = wall.get(f"experiments.{group}", 0.0) + span.end - span.start
            name = "experiments"
        calls[name] = calls.get(name, 0) + 1
        wall[name] = wall.get(name, 0.0) + span.end - span.start
        self_s[name] = self_s.get(name, 0.0) + own
        size[name] = size.get(name, 0) + span.size
        if span.key is not None:
            index_keys.append((span.iteration, span.key))

    def c(name: str) -> float:
        return counters.get(name, 0.0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    lookups = c("sweep.cache.hits_count") + c("sweep.cache.misses_count")
    shared = c("cluster.shared_cache.hits_count") + c("cluster.shared_cache.misses_count")
    busy = histograms.get("cluster.worker.wall_seconds", {}).get("total", 0.0)
    builds = len(index_keys)
    kernel_points = size.get("memsim.kernels.grid", 0)

    metrics: dict[str, float] = {
        "experiments.fig14.wall_s": wall.get("experiments.fig14", 0.0),
        "experiments.table1.wall_s": wall.get("experiments.table1", 0.0),
        "experiments.bandwidth.wall_s": wall.get("experiments.bandwidth", 0.0),
        "ssb.dbgen.calls": calls.get("ssb.dbgen", 0),
        "ssb.dbgen.wall_s": wall.get("ssb.dbgen", 0.0),
        "ssb.engine.execute.calls": calls.get("ssb.engine.execute", 0),
        "ssb.engine.index_build.calls": calls.get("ssb.engine.index_build", 0),
        "ssb.engine.index_build.wall_s": wall.get("ssb.engine.index_build", 0.0),
        "ssb.engine.probe.calls": calls.get("ssb.engine.probe", 0),
        "ssb.engine.probe.wall_s": wall.get("ssb.engine.probe", 0.0),
        "ssb.costmodel.price.calls": calls.get("ssb.costmodel.price", 0),
        "ssb.costmodel.price.wall_s": wall.get("ssb.costmodel.price", 0.0),
        "memsim.evaluation.evaluate.calls": calls.get("memsim.evaluation.evaluate", 0),
        "memsim.evaluation.evaluate.wall_s": wall.get("memsim.evaluation.evaluate", 0.0),
        "memsim.kernels.grid.calls": calls.get("memsim.kernels.grid", 0),
        "memsim.kernels.grid.points": kernel_points,
        "memsim.kernels.grid.wall_s": wall.get("memsim.kernels.grid", 0.0),
        "sweep.runner.run_columns.calls": calls.get("sweep.runner.run_columns", 0),
        "sweep.service.grid.calls": calls.get("sweep.service.grid", 0),
        "sweep.service.grid.points": size.get("sweep.service.grid", 0),
        "sweep.service.evaluate.calls": calls.get("sweep.service.evaluate", 0),
        "sweep.cache.digest.calls": calls.get("sweep.cache.digest", 0),
        "sweep.cache.digest.wall_s": wall.get("sweep.cache.digest", 0.0),
        "sweep.cache.disk.get.calls": calls.get("sweep.cache.disk.get", 0),
        "sweep.cache.disk.get.wall_s": wall.get("sweep.cache.disk.get", 0.0),
        "sweep.cache.disk.put.rows": size.get("sweep.cache.disk.put", 0),
        "sweep.cache.disk.put.wall_s": wall.get("sweep.cache.disk.put", 0.0),
        "sweep.cluster.run.wall_s": wall.get("sweep.cluster.run", 0.0),
        "sweep.cache.disk.bytes": disk_bytes,
    }
    for kind in ("dash", "chained"):
        for op in ("insert", "probe"):
            span_name = f"ssb.hashindex.{kind}.{op}"
            metrics[f"{span_name}_keys"] = size.get(span_name, 0)
            metrics[f"{span_name}_s"] = wall.get(span_name, 0.0)
    # Everything above is a total over the traced iterations.
    metrics = {name: value * per_iter for name, value in metrics.items()}
    # The program's counters cover the one counted iteration.
    metrics.update({
        "memsim.kernels.fallback_count": c("sweep.vector.fallback_count"),
        "sweep.cluster.workers": c("cluster.workers_count"),
        "sweep.cluster.chunks_shipped": c("cluster.chunks.shipped_count"),
        "sweep.cluster.chunks_stolen": c("cluster.chunks.stolen_count"),
        "sweep.cluster.chunks_requeued": c("cluster.chunks.requeued_count"),
        "sweep.cluster.worker_busy_s": busy,
    })

    for _module, _path, name, _size, _key in TARGETS:
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0) * per_iter
    metrics["experiments.self_s"] = self_s.get("experiments", 0.0) * per_iter
    metrics["trace.unattributed_s"] = self_s.get(ROOT, 0.0) * per_iter
    metrics["trace.wall_s"] = wall.get(ROOT, 0.0) * per_iter

    # Ratios are taken over the traced totals, not averaged per iteration.
    metrics["ssb.engine.index_build.redundant_ratio"] = ratio(builds - len(set(index_keys)), builds)
    metrics["memsim.kernels.ns_per_point"] = (
        wall.get("memsim.kernels.grid", 0.0) / kernel_points * 1e9 if kernel_points else 0.0
    )
    metrics["sweep.service.memo_hit_ratio"] = ratio(
        c("sweep.cache.hits_count") - c("sweep.cache.disk_hits_count"), lookups
    )
    metrics["sweep.service.disk_hit_ratio"] = ratio(c("sweep.cache.disk_hits_count"), lookups)
    metrics["sweep.cluster.shared_cache_hit_ratio"] = ratio(
        c("cluster.shared_cache.hits_count"), shared
    )
    metrics["sweep.cluster.worker_utilization"] = ratio(busy, counted_wall_s * workers)
    metrics["trace.overhead_ratio"] = ratio(traced_wall_s, untraced_wall_s)
    return metrics


def unit_of(metric: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("ns_per_point"):
        return "ns"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith("_ratio") or metric.endswith("_utilization"):
        return "ratio"
    return "count"
