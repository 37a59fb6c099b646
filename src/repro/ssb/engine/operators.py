"""Relational operators over numpy columns, with traffic accounting.

Each operator both *does the work* (produces correct numpy results) and
*charges* an :class:`~repro.ssb.engine.traffic.OperatorTraffic` record
describing the memory traffic the operation causes on the modeled
server. CPU weights are relative per-tuple costs (a hash probe costs
more cycles than a predicate compare); the absolute scale is a single
calibrated constant in the cost model.

Join strategy (following the paper's handcrafted implementation, which
uses Dash as *the* index): every dimension carries one persistent hash
index mapping its primary key to the row position. The model packs up
to two small dimension attributes into the 64-bit value (range-checked,
not stored: the numpy work reads them by row), so selective predicates
and group keys need no second lookup. A join is then a probe per
candidate fact row followed by a predicate on the packed attributes.
The PMEM-unaware profile (Hyrise) instead stores only the row position
and must gather dimension attributes by position — extra random reads —
and materialises a position list between operators.

The traffic records charge that per-fact-row work; the numpy work is
done once per dimension row instead. A probe resolves each fact key to
a dimension row, and a join's predicates and attributes depend only on
that row, so :func:`probe_dimension` evaluates them over the dimension
and keeps or drops each fact row with one gather (a semi-join).

The probe itself (:func:`probe_keys`) is kept apart from the semi-join:
where a probe lands depends only on the key sequence and the index, so
its outcome (:class:`KeyProbe`) can be replayed on the same index
(:func:`replay_probe`), charging the same stats.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from repro.errors import QueryError
from repro.ssb.dbgen import Table
from repro.ssb.engine.traffic import OperatorTraffic
from repro.ssb.hashindex import ChainedIndex, ChainStats, DashIndex, ProbeStats
from repro.ssb.queries import Predicate
from repro.ssb.storage import IndexKind, SystemProfile, TupleLayout

#: Relative CPU cost weights per tuple, in units of the cost model's
#: calibrated base (25 ns). Vectorised predicate compares are nearly
#: free; hash probes pay hashing, a fingerprint scan, and (for chains)
#: pointer chasing.
CPU_COMPARE: float = 0.2
CPU_HASH_BUILD: float = 12.0
CPU_HASH_PROBE: float = 12.0
CPU_CHAIN_PROBE: float = 6.0
CPU_AGGREGATE: float = 2.0

#: The Dash value the model packs: a 24-bit row position and up to two
#: 20-bit attributes.
POSITION_BITS: int = 24
ATTR_BITS: int = 20
MAX_PACKED_ATTRS: int = 2


def fact_scan_traffic(
    fact: Table, columns_used: list[str], profile: SystemProfile
) -> OperatorTraffic:
    """Traffic of the full fact-table scan feeding the query pipeline."""
    if profile.tuple_layout is TupleLayout.ROW128:
        # §6.2: fields aligned to 128 B per tuple; the scan moves whole
        # tuples regardless of which columns the query touches.
        seq_bytes = fact.n_rows * 128
    else:
        seq_bytes = fact.column_bytes(columns_used)
    return OperatorTraffic(
        name="fact-scan",
        seq_read_bytes=float(seq_bytes),
        cpu_tuples=float(fact.n_rows),
        cpu_weight=CPU_COMPARE,
    )


def filter_mask(table: Table, predicates: tuple[Predicate, ...]) -> np.ndarray:
    """Conjunction of predicates as a boolean mask."""
    if not predicates:
        return np.ones(table.n_rows, dtype=bool)
    mask = predicates[0].evaluate(table[predicates[0].column])
    for predicate in predicates[1:]:
        mask &= predicate.evaluate(table[predicate.column])
    return mask


@dataclass
class JoinIndex:
    """A persistent dimension index plus the attributes its value packs."""

    table: str
    index: DashIndex | ChainedIndex
    packed_attrs: tuple[str, ...]
    build_traffic: OperatorTraffic

    @property
    def memory_bytes(self) -> int:
        """Footprint of the dimension index in bytes."""
        return self.index.memory_bytes


def build_dimension_index(
    dim: Table,
    key_column: str,
    attrs: tuple[str, ...],
    profile: SystemProfile,
    *,
    like: JoinIndex | None = None,
) -> JoinIndex:
    """Build the per-dimension hash index over *all* rows: key to row position.

    DASH models ``attrs`` as packed into the value next to the position
    (probe-then-filter needs no second access), so they must fit it: at
    most two, each in ``[0, 2**20)``, over fewer than ``2**24`` rows.
    CHAINED models an index that must be followed by positional gathers.

    ``like`` is a Dash index built earlier over the same table: the
    result shares its index and charges a copy of its build record, the
    record a fresh build would charge. Another table's index is ignored.
    """
    keys = dim[key_column].astype(np.int64)
    positions = np.arange(len(keys), dtype=np.int64)
    if profile.index_kind is IndexKind.DASH:
        if len(attrs) > MAX_PACKED_ATTRS:
            raise QueryError(
                f"cannot pack {len(attrs)} attributes (max {MAX_PACKED_ATTRS})"
            )
        if len(keys) >= 1 << POSITION_BITS:
            # The probe's miss sentinel takes the position after the last.
            raise QueryError("row position exceeds the 24-bit packed range")
        for attr in attrs:
            values = dim[attr]
            if values.size and not 0 <= values.min() <= values.max() < 1 << ATTR_BITS:
                raise QueryError(f"attribute {attr} exceeds the 20-bit packed range")
        if like is not None and like.table == dim.spec.name and isinstance(
            like.index, DashIndex
        ):
            return replace(
                like, packed_attrs=attrs, build_traffic=replace(like.build_traffic)
            )
        index: DashIndex | ChainedIndex = DashIndex()
        index.bulk_insert(keys, positions, assume_unique=True)
        write_bytes = float(index.stats.write_bytes)
        read_bytes = float(index.stats.build_read_bytes)
        access = index.stats.access_size
        packed: tuple[str, ...] = attrs
    elif profile.index_kind is IndexKind.CHAINED:
        index = ChainedIndex(expected_size=max(len(keys), 1))
        index.bulk_insert(keys, positions)
        write_bytes = float(index.stats.write_bytes)
        read_bytes = 0.0
        access = index.stats.access_size
        packed = ()
    else:
        raise QueryError(f"unknown index kind {profile.index_kind}")
    traffic = OperatorTraffic(
        name=f"build-index({dim.spec.name})",
        random_reads=read_bytes / access,
        random_read_size=access,
        random_write_bytes=write_bytes,
        cpu_tuples=float(len(keys)),
        cpu_weight=CPU_HASH_BUILD,
    )
    traffic.random_region_bytes = float(index.memory_bytes)
    traffic.region_table = dim.spec.name
    return JoinIndex(
        table=dim.spec.name, index=index, packed_attrs=packed, build_traffic=traffic
    )


@dataclass(frozen=True)
class KeyProbe:
    """The outcome of probing a dimension index with a key sequence.

    ``rows`` holds the dimension row each key hit, or the row after the
    last where it missed (read-only); ``hits`` counts the keys that hit,
    and ``delta`` is what the probe added to the index's stats.
    """

    rows: np.ndarray
    hits: int
    delta: ProbeStats | ChainStats


def probe_keys(join_index: JoinIndex, keys: np.ndarray, missing: int) -> KeyProbe:
    """Probe the index with ``keys``; a miss resolves to row ``missing``.

    The rows, the hits and the stats delta depend only on the keys and
    the index.
    """
    index = join_index.index
    before = replace(index.stats)
    rows = index.bulk_probe(keys, missing=missing)
    rows.setflags(write=False)
    after = index.stats
    delta = type(after)(
        **{
            f.name: getattr(after, f.name) - getattr(before, f.name)
            for f in fields(after)
        }
    )
    hits = len(rows) - int(np.count_nonzero(rows == missing))
    return KeyProbe(rows=rows, hits=hits, delta=delta)


def replay_probe(join_index: JoinIndex, probe: KeyProbe) -> None:
    """Charge ``probe`` to the index again, as probing its keys would.

    Exact for the index the probe was resolved on.
    """
    stats = join_index.index.stats
    for f in fields(stats):
        setattr(stats, f.name, getattr(stats, f.name) + getattr(probe.delta, f.name))


def probe_dimension(
    join_index: JoinIndex,
    fact_keys: np.ndarray | KeyProbe,
    dim: Table,
    needed_attrs: tuple[str, ...],
    predicates: tuple[Predicate, ...] = (),
    payload: tuple[str, ...] = (),
) -> tuple[np.ndarray, dict[str, np.ndarray], list[OperatorTraffic]]:
    """Semi-join the fact keys with the dimension under the join's predicates.

    Returns ``(selection, {payload attr: value per survivor}, traffic
    records)``, where ``selection`` indexes the fact keys that hit a
    dimension row satisfying every predicate. ``needed_attrs`` are the
    attributes the join reads (predicate columns and payload). With
    packed attributes (DASH) the probe alone delivers them in the model;
    otherwise they are charged as gathers by row position — random reads
    into the dimension's column storage. Either way they are read from
    the dimension by row, and the predicates are charged per hit and
    predicate, though they are evaluated once per dimension row.

    ``fact_keys`` may instead be their :class:`KeyProbe`, already charged
    to this index: the executor resolves a probe of a fact column as
    stored once and replays it (:func:`replay_probe`) for later queries.
    The probe record is the same either way; the predicates, the
    selection and the payload still run per call.
    """
    sentinel = dim.n_rows
    probe = (
        fact_keys
        if isinstance(fact_keys, KeyProbe)
        else probe_keys(join_index, fact_keys, sentinel)
    )
    delta = probe.delta
    records = [
        OperatorTraffic(
            name=f"probe({join_index.table})",
            random_reads=float(delta.read_bytes / delta.access_size),
            random_read_size=delta.access_size,
            cpu_tuples=float(delta.probes),
            cpu_weight=(
                CPU_HASH_PROBE if isinstance(delta, ProbeStats) else CPU_CHAIN_PROBE
            ),
            random_region_bytes=float(join_index.memory_bytes),
            region_table=join_index.table,
        )
    ]
    if join_index.packed_attrs:
        missing = [a for a in needed_attrs if a not in join_index.packed_attrs]
        if missing:
            raise QueryError(
                f"index on {join_index.table} lacks packed attrs {missing}"
            )

    # A miss resolves to the row after the last, which no predicate keeps.
    rows, hits = probe.rows, probe.hits
    gathered = bool(needed_attrs) and not join_index.packed_attrs
    keep = np.zeros(sentinel + 1, dtype=bool)
    keep[:sentinel] = filter_mask(dim, predicates)
    selection = np.flatnonzero(keep[rows])
    survivors = rows[selection]
    values = {name: dim[name].astype(np.int64).take(survivors) for name in payload}

    if gathered:
        records.append(
            OperatorTraffic(
                name=f"gather({join_index.table})",
                random_reads=float(hits * len(needed_attrs)),
                random_read_size=64,
                cpu_tuples=float(hits),
                cpu_weight=CPU_COMPARE,
                random_region_bytes=float(dim.column_bytes()),
                region_table=join_index.table,
            )
        )
    if predicates:
        records.append(
            OperatorTraffic(
                name="dim-filter",
                cpu_tuples=float(hits) * len(predicates),
                cpu_weight=CPU_COMPARE,
            )
        )
    return selection, values, records


def fact_gather(rows: int, column_bytes: float, label: str) -> OperatorTraffic:
    """Positional gather of a fact column (PMEM-unaware engines only).

    Operator-at-a-time engines re-fetch fact columns by row id after each
    materialised intermediate, producing random 64 B reads into the huge
    fact region — the paper's explanation for Hyrise's PMEM penalty.
    """
    return OperatorTraffic(
        name=f"fact-gather({label})",
        random_reads=float(rows),
        random_read_size=64,
        cpu_tuples=float(rows),
        cpu_weight=CPU_COMPARE,
        random_region_bytes=float(column_bytes),
        region_table="lineorder",
    )


def materialize_positions(rows: int, label: str) -> OperatorTraffic:
    """Charge a per-operator position-list materialisation (Hyrise-style).

    PMEM-unaware engines write every operator's output row-id list to the
    storage medium and re-read it in the next operator (§6.1: "all tables
    and intermediates are stored either completely in PMEM or in DRAM").
    """
    bytes_ = float(rows * 8)
    return OperatorTraffic(
        name=f"materialize({label})",
        seq_write_bytes=bytes_,
        seq_read_bytes=bytes_,
        cpu_tuples=float(rows),
        cpu_weight=CPU_COMPARE,
    )


@dataclass
class GroupedResult:
    """Materialised group-by result: key tuples -> summed measure."""

    keys: list[tuple[int, ...]]
    sums: np.ndarray

    def as_dict(self) -> dict[tuple[int, ...], int]:
        return {k: int(v) for k, v in zip(self.keys, self.sums)}

    @property
    def n_groups(self) -> int:
        return len(self.keys)


def group_aggregate(
    group_columns: list[np.ndarray],
    measure: np.ndarray,
    intermediate_width: int,
) -> tuple[GroupedResult, OperatorTraffic]:
    """SUM ``measure`` grouped by the key columns.

    Charges the materialisation the paper describes for QF2-4: the
    (key, measure) intermediate is written out once and read back by the
    aggregation.
    """
    n = len(measure)
    if any(len(col) != n for col in group_columns):
        raise QueryError("group columns must align with the measure")
    if n == 0:
        empty = GroupedResult(keys=[], sums=np.empty(0, dtype=np.int64))
        return empty, OperatorTraffic(name="aggregate", cpu_tuples=0.0)
    if group_columns:
        # Sort rows by their key tuples (``lexsort`` takes the primary
        # key last), then sum each run of equal keys.
        columns = [c.astype(np.int64) for c in group_columns]
        order = np.lexsort(columns[::-1])
        columns = [column[order] for column in columns]
        starts = np.zeros(n, dtype=bool)
        starts[0] = True
        for column in columns:
            starts[1:] |= column[1:] != column[:-1]
        first = np.flatnonzero(starts)
        sums = np.add.reduceat(measure.astype(np.int64)[order], first)
        result = GroupedResult(
            keys=list(zip(*(column[first].tolist() for column in columns))),
            sums=sums,
        )
    else:
        result = GroupedResult(
            keys=[()], sums=np.asarray([measure.astype(np.int64).sum()])
        )
    intermediate_bytes = float(n * intermediate_width)
    traffic = OperatorTraffic(
        name="aggregate",
        seq_read_bytes=intermediate_bytes,
        seq_write_bytes=intermediate_bytes,
        cpu_tuples=float(n),
        cpu_weight=CPU_AGGREGATE,
    )
    return result, traffic
