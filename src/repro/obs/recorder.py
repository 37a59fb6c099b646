"""Recorder protocol and its three implementations.

The observability layer mirrors the event-counter methodology the paper
borrows from VTune: instead of only reporting final bandwidth, every
subsystem *emits* what its mechanisms did — media line requests per
DIMM, write-combining hits, UPI payload and coherence traffic, cache
hits in the sweep service — into a write-only sink.

Three sinks implement the :class:`Recorder` protocol:

* :class:`NullRecorder` — the default everywhere. ``enabled`` is False
  and all emission sites guard on it, so the hot path pays a single
  attribute check and nothing else.
* :class:`CountersRecorder` — named monotonic counters, min/max/mean
  histograms, and event/span tallies; :meth:`CountersRecorder.snapshot`
  is the canonical form the golden tests compare.
* :class:`TraceRecorder` — an ordered span/event stream with a JSONL
  exporter. Records are sequence-numbered, not timestamped, unless a
  clock is injected — the default trace of a deterministic evaluation
  is itself deterministic.

Recorders are deliberately *not* part of any cache key: they are sinks,
never inputs, which keeps :func:`repro.memsim.evaluation.evaluate` pure
(see DESIGN.md §5).
"""

from __future__ import annotations

import contextlib
import json
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol


class Recorder(Protocol):
    """Write-only sink for counters, histogram samples, events and spans.

    ``enabled`` exists so emission sites can skip building their payload
    entirely: the contract is ``if recorder.enabled: recorder.incr(...)``.
    Counter and histogram names follow the catalogue convention enforced
    by simlint rule SIM104 — ``dotted.lower_snake`` with a unit suffix
    (``_bytes``, ``_count``, ``_seconds``, ``_ratio``, ``_gbps``).
    """

    enabled: bool

    def incr(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the monotonic counter ``name``."""

    def observe(self, name: str, value: float) -> None:
        """Record one sample of the distribution ``name``."""

    def event(self, name: str, **fields: object) -> None:
        """Record one structured event."""

    def span(self, name: str, **fields: object) -> contextlib.AbstractContextManager[None]:
        """Context manager bracketing a named unit of work."""


_NULL_SPAN = contextlib.nullcontext()


class NullRecorder:
    """The no-op sink: ``enabled`` is False and every method does nothing.

    Emission sites check ``enabled`` before assembling any payload, so
    the default-recorder hot path costs one attribute load and one
    branch (benchmarks/bench_obs_overhead.py keeps it under 2%).
    """

    enabled: bool = False

    def incr(self, name: str, value: float = 1.0) -> None:
        """Discard the counter increment (``value`` in the counter's unit)."""

    def observe(self, name: str, value: float) -> None:
        """Discard the sample."""

    def event(self, name: str, **fields: object) -> None:
        """Discard the event."""

    def span(self, name: str, **fields: object) -> contextlib.AbstractContextManager[None]:
        """Return a shared no-op context manager."""
        return _NULL_SPAN


#: Shared process-wide instance; NullRecorder carries no state, so one
#: object serves every call site.
NULL_RECORDER = NullRecorder()


@dataclass
class HistogramSummary:
    """Streaming summary of one observed distribution.

    Stores count/total/min/max rather than raw samples: enough for the
    reports and the golden comparisons while staying O(1) per sample.
    """

    count: int = 0
    total: float = 0.0
    minimum: float = 0.0
    maximum: float = 0.0

    def add(self, value: float) -> None:
        value = float(value)
        if self.count == 0:
            self.minimum = value
            self.maximum = value
        else:
            self.minimum = min(self.minimum, value)
            self.maximum = max(self.maximum, value)
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def to_json(self) -> dict[str, float | int]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
        }

    def merge(self, count: int, total: float, minimum: float, maximum: float) -> None:
        """Fold another summary's state into this one, exactly.

        Count/total/min/max form a commutative monoid: merging the
        summaries of two disjoint sample streams equals summarising the
        concatenated stream (up to float addition order on ``total``).
        This is what lets worker processes ship snapshots instead of
        individual samples.
        """
        if count <= 0:
            return
        if self.count == 0:
            self.minimum = minimum
            self.maximum = maximum
        else:
            self.minimum = min(self.minimum, minimum)
            self.maximum = max(self.maximum, maximum)
        self.count += int(count)
        self.total += float(total)


class CountersRecorder:
    """Accumulates named monotonic counters, histograms, and event tallies.

    The canonical output is :meth:`snapshot` — plain dicts of floats and
    ints, JSON-serialisable with exact float round-trips (Python's JSON
    encoder emits ``repr(float)``), which is what makes exact-equality
    golden tests possible.
    """

    enabled: bool = True

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.histograms: dict[str, HistogramSummary] = {}
        self.event_counts: dict[str, int] = {}
        self.span_counts: dict[str, int] = {}

    def incr(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` (in the counter's own unit) to counter ``name``."""
        self.counters[name] = self.counters.get(name, 0.0) + float(value)

    def observe(self, name: str, value: float) -> None:
        """Fold one sample into the histogram ``name``."""
        summary = self.histograms.get(name)
        if summary is None:
            summary = HistogramSummary()
            self.histograms[name] = summary
        summary.add(value)

    def event(self, name: str, **fields: object) -> None:
        """Count the event; field payloads are not retained here."""
        self.event_counts[name] = self.event_counts.get(name, 0) + 1

    @contextlib.contextmanager
    def span(self, name: str, **fields: object) -> Iterator[None]:
        """Count the span on entry; no timing (snapshots stay deterministic)."""
        self.span_counts[name] = self.span_counts.get(name, 0) + 1
        yield

    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0.0 if never incremented)."""
        return self.counters.get(name, 0.0)

    def snapshot(self) -> dict[str, object]:
        """Canonical JSON-ready state: sorted dicts of exact values."""
        return {
            "counters": {name: self.counters[name] for name in sorted(self.counters)},
            "histograms": {
                name: self.histograms[name].to_json()
                for name in sorted(self.histograms)
            },
            "events": {name: self.event_counts[name] for name in sorted(self.event_counts)},
            "spans": {name: self.span_counts[name] for name in sorted(self.span_counts)},
        }

    def merge_snapshot(self, snapshot: dict[str, object]) -> None:
        """Fold a :meth:`snapshot` produced elsewhere into this recorder.

        Exact for everything a snapshot carries: counters and event/span
        tallies add; histograms merge their count/total/min/max monoids
        (:meth:`HistogramSummary.merge`). The cluster sweep backend uses
        this to account worker-side emissions in the coordinator — the
        merged state equals what a single shared recorder would have
        accumulated, up to float addition order across workers.
        """
        counters = snapshot.get("counters") or {}
        for name, value in counters.items():
            self.incr(name, float(value))
        histograms = snapshot.get("histograms") or {}
        for name, payload in histograms.items():
            summary = self.histograms.get(name)
            if summary is None:
                summary = HistogramSummary()
                self.histograms[name] = summary
            summary.merge(
                int(payload["count"]),
                float(payload["total"]),
                float(payload["min"]),
                float(payload["max"]),
            )
        events = snapshot.get("events") or {}
        for name, count in events.items():
            self.event_counts[name] = self.event_counts.get(name, 0) + int(count)
        spans = snapshot.get("spans") or {}
        for name, count in spans.items():
            self.span_counts[name] = self.span_counts.get(name, 0) + int(count)


class TraceRecorder:
    """Ordered span/event stream with a JSONL exporter.

    Records are dicts with a monotonically increasing ``seq``. By default
    no wall-clock timestamps are taken — tracing a deterministic
    evaluation yields a deterministic trace — but callers may inject a
    ``clock`` callable (e.g. ``time.perf_counter``) to add a ``t`` field
    in seconds to every record.
    """

    enabled: bool = True

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        *,
        record_observations: bool = False,
    ) -> None:
        self.records: list[dict[str, object]] = []
        self._clock = clock
        self._next_seq = 0
        self._next_span = 0
        self._depth = 0
        #: Histogram observations carry wall-time samples (e.g.
        #: ``sweep.batch.wall_seconds``); dropping them by default keeps
        #: the trace of a deterministic run deterministic.
        self.record_observations = record_observations

    def __len__(self) -> int:
        return len(self.records)

    def _append(self, record: dict[str, object]) -> None:
        record["seq"] = self._next_seq
        self._next_seq += 1
        if self._clock is not None:
            record["t"] = float(self._clock())
        self.records.append(record)

    def incr(self, name: str, value: float = 1.0) -> None:
        """Record the counter increment (``value`` in the counter's unit)."""
        self._append({"type": "counter", "name": name, "value": float(value)})

    def observe(self, name: str, value: float) -> None:
        """Record the sample (dropped unless ``record_observations``)."""
        if self.record_observations:
            self._append({"type": "observe", "name": name, "value": float(value)})

    def event(self, name: str, **fields: object) -> None:
        """Record a structured event with its fields."""
        self._append({"type": "event", "name": name, "depth": self._depth,
                      "fields": fields})

    @contextlib.contextmanager
    def span(self, name: str, **fields: object) -> Iterator[None]:
        """Bracket a unit of work with span_begin/span_end records."""
        span_id = self._next_span
        self._next_span += 1
        self._append({"type": "span_begin", "name": name, "span": span_id,
                      "depth": self._depth, "fields": fields})
        self._depth += 1
        try:
            yield
        finally:
            self._depth -= 1
            self._append({"type": "span_end", "name": name, "span": span_id,
                          "depth": self._depth})

    def export_jsonl(self, path: Path | str | None = None) -> str:
        """Serialise the trace as JSON Lines; write to ``path`` if given."""
        text = "\n".join(json.dumps(r, sort_keys=True, default=str) for r in self.records)
        if text:
            text += "\n"
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text


def merge_snapshot(recorder: Recorder, snapshot: dict[str, object]) -> None:
    """Fold a :meth:`CountersRecorder.snapshot` into any recorder.

    :class:`CountersRecorder` merges exactly (see
    :meth:`CountersRecorder.merge_snapshot`). Other sinks get a
    best-effort replay: counters as single increments, events and spans
    repeated by tally, and each histogram as its min and max samples plus
    ``count - 2`` mean-valued samples — the replayed summary has the same
    count/min/max and a total equal up to float rounding. Disabled
    recorders are left untouched.
    """
    if not recorder.enabled:
        return
    if isinstance(recorder, CountersRecorder):
        recorder.merge_snapshot(snapshot)
        return
    counters = snapshot.get("counters") or {}
    for name, value in counters.items():
        recorder.incr(name, float(value))
    histograms = snapshot.get("histograms") or {}
    for name, payload in histograms.items():
        count = int(payload["count"])
        if count <= 0:
            continue
        minimum = float(payload["min"])
        maximum = float(payload["max"])
        recorder.observe(name, minimum)
        if count >= 2:
            recorder.observe(name, maximum)
        remaining = count - 2
        if remaining > 0:
            filler = (float(payload["total"]) - minimum - maximum) / remaining
            for _ in range(remaining):
                recorder.observe(name, filler)
    events = snapshot.get("events") or {}
    for name, count in events.items():
        for _ in range(int(count)):
            recorder.event(name)
    spans = snapshot.get("spans") or {}
    for name, count in spans.items():
        for _ in range(int(count)):
            with recorder.span(name):
                pass
