"""Property-based tests of the SSB components."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryError
from repro.ssb import schema
from repro.ssb.dbgen import Table, generate
from repro.ssb.engine import SsbExecutor, operators
from repro.ssb.hashindex import ChainedIndex, DashIndex
from repro.ssb.queries import ALL_QUERIES
from repro.ssb.storage import HANDCRAFTED_PMEM

_DB = generate(scale_factor=0.01, seed=9)
_EXECUTOR = SsbExecutor(_DB, HANDCRAFTED_PMEM)


key_arrays = st.lists(
    st.integers(min_value=-(2**40), max_value=2**40), min_size=1, max_size=300,
    unique=True,
)


class TestHashIndexProperties:
    @given(keys=key_arrays)
    @settings(max_examples=30, deadline=None)
    def test_dash_round_trip(self, keys):
        index = DashIndex()
        array = np.asarray(keys, dtype=np.int64)
        index.bulk_insert(array, array * 3)
        assert np.array_equal(index.bulk_probe(array), array * 3)
        assert len(index) == len(keys)

    @given(keys=key_arrays)
    @settings(max_examples=30, deadline=None)
    def test_chained_round_trip(self, keys):
        index = ChainedIndex(expected_size=len(keys))
        array = np.asarray(keys, dtype=np.int64)
        index.bulk_insert(array, array - 1)
        assert np.array_equal(index.bulk_probe(array), array - 1)

    @given(keys=key_arrays, probe=st.integers(min_value=2**41, max_value=2**42))
    @settings(max_examples=30, deadline=None)
    def test_dash_never_fabricates_hits(self, keys, probe):
        # Keys are bounded by 2**40; probes beyond that must miss.
        index = DashIndex()
        array = np.asarray(keys, dtype=np.int64)
        index.bulk_insert(array, array)
        assert index.get(probe, default=-99) == -99

    @given(keys=key_arrays)
    @settings(max_examples=20, deadline=None)
    def test_dash_traffic_monotone(self, keys):
        index = DashIndex()
        array = np.asarray(keys, dtype=np.int64)
        index.bulk_insert(array, array)
        before = index.stats.read_bytes
        index.bulk_probe(array)
        assert index.stats.read_bytes >= before + len(keys) * 0  # non-negative
        assert index.stats.probes == len(keys)


def _customer(c_city=None, rows=None):
    """The customer dimension, ``c_city`` replaced and cut to ``rows``."""
    columns = dict(_DB.customer.columns)
    if c_city is not None:
        columns["c_city"] = c_city
    return Table(
        spec=_DB.customer.spec,
        columns={name: column[:rows] for name, column in columns.items()},
    )


def _build(dim, attrs=("c_city",)):
    return operators.build_dimension_index(dim, "c_custkey", attrs, HANDCRAFTED_PMEM)


class TestPackingProperties:
    """A Dash join packs at most two 20-bit attributes next to a 24-bit row."""

    def test_pack_rejects_three_attrs(self):
        with pytest.raises(QueryError, match="cannot pack 3"):
            _build(_DB.customer, ("c_region", "c_nation", "c_city"))

    def test_pack_rejects_oversized_attr(self):
        city = _DB.customer["c_city"].astype(np.int64)
        city[-1] = (1 << 20) - 1
        _build(_customer(c_city=city))
        city[-1] = 1 << 20
        with pytest.raises(QueryError, match="20-bit"):
            _build(_customer(c_city=city))

    def test_pack_rejects_negative_attr(self):
        city = _DB.customer["c_city"].astype(np.int64)
        city[-1] = -1
        with pytest.raises(QueryError, match="20-bit"):
            _build(_customer(c_city=city))

    def test_pack_rejects_oversized_position(self, monkeypatch):
        # A 2**24-row table is 128 MB of keys; with 4 position bits the
        # boundary is at 16 rows.
        monkeypatch.setattr(operators, "POSITION_BITS", 4)
        _build(_customer(rows=15))
        with pytest.raises(QueryError, match="24-bit"):
            _build(_customer(rows=16))


class TestGeneratorProperties:
    @given(sf=st.floats(min_value=0.005, max_value=0.05), seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_referential_integrity(self, sf, seed):
        db = generate(scale_factor=sf, seed=seed)
        lo = db.lineorder
        assert lo["lo_custkey"].min() >= 1
        assert lo["lo_custkey"].max() <= db.customer.n_rows
        assert lo["lo_suppkey"].max() <= db.supplier.n_rows
        assert lo["lo_partkey"].max() <= db.part.n_rows
        assert set(np.unique(lo["lo_orderdate"]).tolist()) <= set(
            db.date["d_datekey"].tolist()
        )

    @given(sf=st.floats(min_value=0.005, max_value=0.05))
    @settings(max_examples=10, deadline=None)
    def test_cardinalities_match_schema(self, sf):
        db = generate(scale_factor=sf, seed=1)
        assert db.lineorder.n_rows == schema.lineorder_rows(sf)
        assert db.customer.n_rows == schema.customer_rows(sf)


class TestQueryInvariants:
    @pytest.mark.parametrize("name", [q.name for q in ALL_QUERIES])
    def test_group_sums_are_consistent(self, name):
        """The sum over groups equals the aggregate over qualifying rows,
        and group counts are bounded by the grouping key space."""
        query = next(q for q in ALL_QUERIES if q.name == name)
        result = _EXECUTOR.execute(query)
        total = sum(result.groups.values())
        assert result.qualifying_rows >= 0
        if result.qualifying_rows == 0:
            assert total == 0
            return
        if query.flight == 1:
            assert total == result.scalar
        assert result.n_groups <= max(result.qualifying_rows, 1)

    @pytest.mark.parametrize("name", [q.name for q in ALL_QUERIES])
    def test_execution_is_deterministic(self, name):
        query = next(q for q in ALL_QUERIES if q.name == name)
        first = _EXECUTOR.execute(query)
        second = _EXECUTOR.execute(query)
        assert first.groups == second.groups
        assert first.qualifying_rows == second.qualifying_rows

    def test_traffic_non_negative(self):
        for query in ALL_QUERIES:
            traffic = _EXECUTOR.execute(query).traffic
            for op in traffic.operators:
                assert op.seq_read_bytes >= 0
                assert op.random_reads >= 0
                assert op.cpu_tuples >= 0
