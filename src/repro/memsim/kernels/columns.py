"""``ResultColumns``: structure-of-arrays batches of evaluation results.

The paper's thesis — bandwidth is maximized by moving wide, contiguous,
well-shaped data — applies to the reproduction's own result path. A
sweep's results used to leave the batched kernel as a list of per-point
:class:`~repro.memsim.evaluation.BandwidthResult` objects, and just
*constructing* the three objects per point (counters dict, frozen
stream, slotted result) cost ~4.7 µs under a ~25-30 µs scalar baseline —
an irreducible floor that capped the vector backend near 3.5-4.5x.

:class:`ResultColumns` keeps results columnar end-to-end: one plain
Python list per observable (stream bandwidths, counter fields, note
tuples, directory states), with point boundaries in ``offsets`` so
multi-stream points fit the same layout. Per-point objects exist only as
**lazy views**: :meth:`view` builds a ``BandwidthResult`` bit-identical
to the scalar evaluator's — via the same ``__new__`` fast path
``BandwidthResult.copy`` uses — on first request and caches it, so
callers that never ask for objects never pay for them.

Row data is immutable (floats, ints, tuples, frozen dataclasses), which
makes :meth:`take`, :meth:`append_from` and :meth:`extend` safe
structural sharing: the sweep service stores a cold grid's kernel batch
with one column-wise :meth:`take`, and assembles mixed hit/miss output
from cached blocks and fresh kernel batches with one :meth:`take` per
source batch (:class:`repro.sweep.service.GridRows`), without copying
row contents. The view cache itself is *never* shared between batches
(views hold a mutable :class:`~repro.memsim.counters.PerfCounters` a
caller may annotate) and never leaves the process: the disk cache
carries column blocks as canonical JSON
(:func:`repro.sweep.cache.columns_to_payload`), the cluster wire the
same blocks without their ``specs`` column (rows payloads, whose
receiver re-attaches the specs it shipped), and pickling drops it too.

This module deliberately imports no NumPy: consumers that only ship or
store column blocks (the sweep cache, the cluster wire) stay off the
kernel import path.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.errors import SchemaError
from repro.memsim.counters import PerfCounters
from repro.memsim.evaluation import BandwidthResult, StreamResult

if TYPE_CHECKING:
    from repro.memsim.config import DirectoryState
    from repro.memsim.spec import StreamSpec

__all__ = ["COUNTER_COLUMNS", "ResultColumns"]

#: The scalar :class:`PerfCounters` fields stored as per-point columns,
#: in dataclass field order. ``notes`` is kept separately (a tuple per
#: point) because views must hand each caller a fresh mutable list.
COUNTER_COLUMNS: tuple[str, ...] = (
    "app_bytes_read",
    "app_bytes_written",
    "media_bytes_read",
    "media_bytes_written",
    "upi_bytes",
    "upi_utilization",
    "page_faults",
    "page_fault_seconds",
    "rpq_occupancy",
    "wpq_occupancy",
)

#: The per-stream columns (point ``i`` owns ``offsets[i]:offsets[i+1]``)
#: and the per-point columns other than ``directory_after``.
_STREAM_COLUMNS: tuple[str, ...] = ("specs", "gbps", "solo_gbps", "stream_notes")
_POINT_COLUMNS: tuple[str, ...] = (*COUNTER_COLUMNS, "counter_notes")

#: Sentinel distinguishing "use the source row's directory" from an
#: explicit ``None`` override in :meth:`ResultColumns.append_from`.
_KEEP = object()


def _pick(column: list, where: "slice | list[int]") -> list:
    """``column[where]`` for a slice, else the entries at the positions
    ``where`` lists, gathered in C by ``itemgetter``."""
    if type(where) is slice:
        return column[where]
    if len(where) > 1:
        return list(itemgetter(*where)(column))
    return [column[i] for i in where]


class ResultColumns:
    """A batch of evaluation results stored structure-of-arrays.

    Per-stream columns (``specs``, ``gbps``, ``solo_gbps``,
    ``stream_notes``) are flat; point ``i`` owns the slice
    ``offsets[i]:offsets[i+1]``. Per-point columns hold one entry per
    point: the ten scalar :class:`PerfCounters` fields
    (:data:`COUNTER_COLUMNS`), ``counter_notes``, and
    ``directory_after``.
    """

    __slots__ = (
        "offsets",
        "specs",
        "gbps",
        "solo_gbps",
        "stream_notes",
        *COUNTER_COLUMNS,
        "counter_notes",
        "directory_after",
        "_views",
    )

    def __init__(self) -> None:
        self.offsets: list[int] = [0]
        self.specs: list["StreamSpec"] = []
        self.gbps: list[float] = []
        self.solo_gbps: list[float] = []
        self.stream_notes: list[tuple[str, ...]] = []
        for name in COUNTER_COLUMNS:
            setattr(self, name, [])
        self.counter_notes: list[tuple[str, ...]] = []
        self.directory_after: list["DirectoryState | None"] = []
        self._views: list[BandwidthResult | None] = []

    # ------------------------------------------------------------------
    # construction / ingestion
    # ------------------------------------------------------------------

    @classmethod
    def from_results(cls, results: Iterable[BandwidthResult]) -> "ResultColumns":
        """Columnarize already-materialized results (order preserved)."""
        columns = cls()
        for result in results:
            columns.append_result(result)
        return columns

    def append_result(
        self,
        result: BandwidthResult,
        *,
        directory_after: object = _KEEP,
    ) -> None:
        """Append one result as a new row (its objects are not retained).

        ``directory_after`` overrides the stored directory state — the
        sweep service uses it to rebase cached rows onto the caller's
        input state without touching the source entry.
        """
        for stream in result.streams:
            self.specs.append(stream.spec)
            self.gbps.append(stream.gbps)
            self.solo_gbps.append(stream.solo_gbps)
            self.stream_notes.append(tuple(stream.notes))
        self.offsets.append(len(self.specs))
        counters = result.counters
        for name in COUNTER_COLUMNS:
            getattr(self, name).append(getattr(counters, name))
        self.counter_notes.append(tuple(counters.notes))
        self.directory_after.append(
            result.directory_after if directory_after is _KEEP else directory_after
        )
        self._views.append(None)

    def append_from(
        self,
        other: "ResultColumns",
        row: int,
        *,
        directory_after: object = _KEEP,
    ) -> None:
        """Append row ``row`` of ``other`` (structural sharing, no views).

        Row contents are immutable, so sharing them is safe; the view
        cache is deliberately *not* carried over — a view's counters are
        mutable and must never be reachable from two batches.
        """
        lo, hi = other.offsets[row], other.offsets[row + 1]
        self.specs.extend(other.specs[lo:hi])
        self.gbps.extend(other.gbps[lo:hi])
        self.solo_gbps.extend(other.solo_gbps[lo:hi])
        self.stream_notes.extend(other.stream_notes[lo:hi])
        self.offsets.append(len(self.specs))
        for name in COUNTER_COLUMNS:
            getattr(self, name).append(getattr(other, name)[row])
        self.counter_notes.append(other.counter_notes[row])
        self.directory_after.append(
            other.directory_after[row]
            if directory_after is _KEEP
            else directory_after
        )
        self._views.append(None)

    def take(
        self,
        rows: Sequence[int],
        *,
        directory_after: "Sequence[DirectoryState | None] | None" = None,
    ) -> "ResultColumns":
        """A new batch of rows ``rows`` of this one, built column by column.

        Equal to a loop of :meth:`append_from` over ``rows`` (repeats and
        any order allowed), at one slice per column when ``rows`` is a
        step-1 ``range`` and one gather per column otherwise.
        ``directory_after``, when given, holds the new batch's directory
        states, one per taken row. Row contents are shared, never the
        view cache: the new batch starts with none.
        """
        out = ResultColumns()
        offsets = self.offsets
        if type(rows) is range and rows.step == 1 and rows:
            first, stop = rows.start, rows.stop
            if not 0 <= first <= stop <= len(offsets) - 1:
                raise IndexError(f"rows {rows!r} outside a batch of {len(self)}")
            lo, hi = offsets[first], offsets[stop]
            out.offsets = [offset - lo for offset in offsets[first : stop + 1]]
            streams: "slice | list[int]" = slice(lo, hi)
            points: "slice | list[int]" = slice(first, stop)
        else:
            points = list(rows)
            # The flat stream positions of the taken rows, in row order.
            streams = []
            new_offsets = out.offsets
            for row in points:
                lo, hi = offsets[row], offsets[row + 1]
                if hi - lo == 1:
                    streams.append(lo)
                else:
                    streams.extend(range(lo, hi))
                new_offsets.append(len(streams))
        for name in _STREAM_COLUMNS:
            setattr(out, name, _pick(getattr(self, name), streams))
        for name in _POINT_COLUMNS:
            setattr(out, name, _pick(getattr(self, name), points))
        n = len(out.offsets) - 1
        if directory_after is not None:
            if len(directory_after) != n:
                raise SchemaError(
                    f"{len(directory_after)} directory states for {n} rows"
                )
            out.directory_after = list(directory_after)
        else:
            out.directory_after = _pick(self.directory_after, points)
        out._views = [None] * n
        return out

    def extend(self, other: "ResultColumns") -> None:
        """Append every row of ``other`` in order (bulk, column-wise)."""
        base = self.offsets[-1]
        self.offsets.extend(base + offset for offset in other.offsets[1:])
        self.specs.extend(other.specs)
        self.gbps.extend(other.gbps)
        self.solo_gbps.extend(other.solo_gbps)
        self.stream_notes.extend(other.stream_notes)
        for name in COUNTER_COLUMNS:
            getattr(self, name).extend(getattr(other, name))
        self.counter_notes.extend(other.counter_notes)
        self.directory_after.extend(other.directory_after)
        self._views.extend([None] * len(other))

    # ------------------------------------------------------------------
    # columnar reads
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def point_total_gbps(self, row: int) -> float:
        """Total bandwidth of point ``row``, identical to the view's
        ``total_gbps`` (same floats summed in the same order)."""
        return sum(self.gbps[self.offsets[row] : self.offsets[row + 1]])

    def total_gbps(self) -> list[float]:
        """Per-point total bandwidth in decimal GB/s, batch order."""
        offsets = self.offsets
        gbps = self.gbps
        return [
            sum(gbps[offsets[row] : offsets[row + 1]])
            for row in range(len(offsets) - 1)
        ]

    def point_counters(self, row: int) -> dict[str, float | int]:
        """The scalar counter fields of point ``row`` as a plain dict.

        Keys are :data:`COUNTER_COLUMNS` in field order; values are the
        exact stored column entries (bytes, seconds, counts, occupancy
        ratios — the same values ``view(row).counters`` would carry).
        Consumers that only need the numbers — the serving layer's wire
        encoding, report tables — read them here without materializing a
        per-point result object.
        """
        return {name: getattr(self, name)[row] for name in COUNTER_COLUMNS}

    # ------------------------------------------------------------------
    # lazy per-point views
    # ------------------------------------------------------------------

    def _counters_at(self, row: int) -> PerfCounters:
        """A fresh :class:`PerfCounters` for point ``row``.

        Built via ``__new__`` plus a direct ``__dict__`` store — the
        dataclass ``__init__`` is the dominant cost of materializing a
        large batch (see ``analytic._materialize`` history).
        """
        counters = object.__new__(PerfCounters)
        values = {name: getattr(self, name)[row] for name in COUNTER_COLUMNS}
        values["notes"] = list(self.counter_notes[row])
        counters.__dict__ = values
        return counters

    def view(self, row: int) -> BandwidthResult:
        """The :class:`BandwidthResult` for point ``row`` (cached).

        Bit-identical to the scalar evaluator's result for the same
        point: every float is the stored column entry, notes and
        directory states round-trip exactly, and construction uses the
        same fast path as ``BandwidthResult.copy``.
        """
        cached = self._views[row]
        if cached is not None:
            return cached
        new = object.__new__
        rebind = object.__setattr__
        streams = []
        for j in range(self.offsets[row], self.offsets[row + 1]):
            # ``StreamResult`` is frozen, which blocks plain ``__dict__``
            # rebinding; ``object.__setattr__`` bypasses the frozen
            # guard the same way the generated ``__init__`` does.
            stream = new(StreamResult)
            rebind(stream, "__dict__", {
                "spec": self.specs[j],
                "gbps": self.gbps[j],
                "solo_gbps": self.solo_gbps[j],
                "notes": self.stream_notes[j],
            })
            streams.append(stream)
        result = new(BandwidthResult)
        result.streams = tuple(streams)
        result._counters = self._counters_at(row)
        result._counters_source = None
        result.directory_after = self.directory_after[row]
        self._views[row] = result
        return result

    def views(self) -> list[BandwidthResult]:
        """Materialize every point — the compatibility escape hatch for
        callers that still want ``list[BandwidthResult]``."""
        return [self.view(row) for row in range(len(self))]

    # ------------------------------------------------------------------
    # boundaries: equality and pickling
    # ------------------------------------------------------------------

    def _data(self) -> tuple:
        return (
            self.offsets,
            self.specs,
            self.gbps,
            self.solo_gbps,
            self.stream_notes,
            *(getattr(self, name) for name in COUNTER_COLUMNS),
            self.counter_notes,
            self.directory_after,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultColumns):
            return NotImplemented
        return self._data() == other._data()

    def __repr__(self) -> str:
        return (
            f"ResultColumns(points={len(self)}, "
            f"streams={len(self.specs)})"
        )

    def __getstate__(self) -> dict[str, object]:
        # The view cache never crosses a process or disk boundary:
        # views hold caller-mutable counters, and rebuilding them is
        # exactly what lazy views are for.
        state = {name: getattr(self, name) for name in self.__slots__}
        del state["_views"]
        return state

    def __setstate__(self, state: dict[str, object]) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._views = [None] * (len(self.offsets) - 1)

