"""Unit tests for the engine's relational operators."""

import numpy as np
import pytest

from repro.errors import QueryError
from repro.ssb.dbgen import generate
from repro.ssb.engine import operators
from repro.ssb.queries import Predicate, PredicateOp
from repro.ssb.storage import HANDCRAFTED_PMEM, HYRISE_PMEM


@pytest.fixture(scope="module")
def db():
    return generate(scale_factor=0.01, seed=3)


class TestFactScan:
    def test_row128_reads_whole_tuples(self, db):
        traffic = operators.fact_scan_traffic(
            db.lineorder, ["lo_revenue"], HANDCRAFTED_PMEM
        )
        assert traffic.seq_read_bytes == db.lineorder.n_rows * 128

    def test_columnar_reads_only_used_columns(self, db):
        traffic = operators.fact_scan_traffic(
            db.lineorder, ["lo_revenue", "lo_discount"], HYRISE_PMEM
        )
        expected = db.lineorder.column_bytes(["lo_revenue", "lo_discount"])
        assert traffic.seq_read_bytes == expected

    def test_cpu_charged_per_row(self, db):
        traffic = operators.fact_scan_traffic(db.lineorder, [], HANDCRAFTED_PMEM)
        assert traffic.cpu_tuples == db.lineorder.n_rows


class TestFilterMask:
    def test_empty_predicates_select_all(self, db):
        mask = operators.filter_mask(db.lineorder, ())
        assert mask.all()

    def test_conjunction(self, db):
        predicates = (
            Predicate("lo_discount", PredicateOp.BETWEEN, (1, 3)),
            Predicate("lo_quantity", PredicateOp.LT, 25),
        )
        mask = operators.filter_mask(db.lineorder, predicates)
        lo = db.lineorder
        expected = (
            (lo["lo_discount"] >= 1) & (lo["lo_discount"] <= 3)
            & (lo["lo_quantity"] < 25)
        )
        assert np.array_equal(mask, expected)


class TestBuildIndex:
    def test_dash_packs_attributes(self, db):
        join_index = operators.build_dimension_index(
            db.supplier, "s_suppkey", ("s_region",), HANDCRAFTED_PMEM
        )
        assert join_index.packed_attrs == ("s_region",)
        assert join_index.build_traffic.random_write_bytes > 0

    def test_chained_does_not_pack(self, db):
        join_index = operators.build_dimension_index(
            db.supplier, "s_suppkey", ("s_region",), HYRISE_PMEM
        )
        assert join_index.packed_attrs == ()

    def test_region_tagged_with_table(self, db):
        join_index = operators.build_dimension_index(
            db.part, "p_partkey", (), HANDCRAFTED_PMEM
        )
        assert join_index.build_traffic.region_table == "part"


class TestProbeDimension:
    def test_packed_probe_needs_no_gather(self, db):
        join_index = operators.build_dimension_index(
            db.supplier, "s_suppkey", ("s_region",), HANDCRAFTED_PMEM
        )
        keys = db.lineorder["lo_suppkey"][:1000]
        selection, values, records = operators.probe_dimension(
            join_index, keys, db.supplier, ("s_region",), payload=("s_region",)
        )
        assert np.array_equal(selection, np.arange(1000))  # all FKs resolve
        assert "s_region" in values
        assert len(records) == 1  # probe only, no gather

    def test_unpacked_probe_gathers(self, db):
        join_index = operators.build_dimension_index(
            db.supplier, "s_suppkey", (), HYRISE_PMEM
        )
        keys = db.lineorder["lo_suppkey"][:1000]
        selection, _, records = operators.probe_dimension(
            join_index, keys, db.supplier, ("s_region",)
        )
        assert len(selection) == 1000
        gathers = [r for r in records if r.name.startswith("gather(")]
        assert len(gathers) == 1
        assert gathers[0].random_reads == 1000  # hits x attrs

    def test_gathered_values_correct(self, db):
        join_index = operators.build_dimension_index(
            db.supplier, "s_suppkey", (), HYRISE_PMEM
        )
        keys = db.lineorder["lo_suppkey"][:500]
        _, values, _ = operators.probe_dimension(
            join_index, keys, db.supplier, ("s_region",), payload=("s_region",)
        )
        expected = db.supplier["s_region"][keys - 1]  # keys are 1-based/dense
        assert np.array_equal(values["s_region"], expected)

    def test_packed_values_match_gathered(self, db):
        packed_index = operators.build_dimension_index(
            db.supplier, "s_suppkey", ("s_region",), HANDCRAFTED_PMEM
        )
        keys = db.lineorder["lo_suppkey"][:500]
        _, values, _ = operators.probe_dimension(
            packed_index, keys, db.supplier, ("s_region",), payload=("s_region",)
        )
        expected = db.supplier["s_region"][keys - 1].astype(np.int64)
        assert np.array_equal(values["s_region"], expected)

    def test_predicates_select_and_charge_per_hit(self, db):
        region = Predicate("s_region", PredicateOp.EQ, 2)
        join_index = operators.build_dimension_index(
            db.supplier, "s_suppkey", ("s_region", "s_city"), HANDCRAFTED_PMEM
        )
        keys = db.lineorder["lo_suppkey"][:2000]
        selection, values, records = operators.probe_dimension(
            join_index,
            keys,
            db.supplier,
            ("s_region", "s_city"),
            (region,),
            ("s_city",),
        )
        rows = keys - 1
        expected = np.flatnonzero(db.supplier["s_region"][rows] == 2)
        assert np.array_equal(selection, expected)
        assert np.array_equal(values["s_city"], db.supplier["s_city"][rows[expected]])
        assert [r.name for r in records] == ["probe(supplier)", "dim-filter"]
        assert records[1].cpu_tuples == 2000  # hits x predicates

    def test_missing_packed_attr_rejected(self, db):
        join_index = operators.build_dimension_index(
            db.supplier, "s_suppkey", ("s_region",), HANDCRAFTED_PMEM
        )
        keys = db.lineorder["lo_suppkey"][:10]
        with pytest.raises(QueryError):
            operators.probe_dimension(
                join_index, keys, db.supplier, ("s_nation",)
            )


class TestProbeAbsentKeys:
    """Fact keys absent from the dimension resolve to the miss sentinel,
    one row past the last; it must never alias a dimension row."""

    @pytest.mark.parametrize("profile", [HANDCRAFTED_PMEM, HYRISE_PMEM])
    @pytest.mark.parametrize("with_predicate", [False, True])
    def test_absent_keys_never_survive(self, db, profile, with_predicate):
        dim = db.supplier
        n = dim.n_rows
        attrs = ("s_region", "s_nation")
        join_index = operators.build_dimension_index(
            dim, "s_suppkey", attrs, profile
        )
        # Every row, then keys just outside the span (including the key
        # the sentinel position would carry), zero, negatives and a huge key.
        present = np.arange(1, n + 1, dtype=np.int64)
        absent = np.array([0, n + 1, n + 2, -1, -n, 2**40], dtype=np.int64)
        keys = np.concatenate([present, absent, present[::-1]])
        predicates = (
            (Predicate("s_region", PredicateOp.LE, 4),) if with_predicate else ()
        )
        selection, values, records = operators.probe_dimension(
            join_index, keys, dim, attrs, predicates, ("s_nation",)
        )
        expected = np.concatenate(
            [np.arange(n), np.arange(n + len(absent), len(keys))]
        )
        assert np.array_equal(selection, expected)
        rows = keys[expected] - 1
        assert np.array_equal(values["s_nation"], dim["s_nation"][rows])
        hits = 2 * n
        for record in records:
            if record.name == "dim-filter":
                assert record.cpu_tuples == hits
            if record.name.startswith("gather("):
                assert record.random_reads == hits * len(attrs)
        assert any(r.name == "dim-filter" for r in records) == with_predicate

    @pytest.mark.parametrize("profile", [HANDCRAFTED_PMEM, HYRISE_PMEM])
    def test_only_absent_keys_select_nothing(self, db, profile):
        join_index = operators.build_dimension_index(
            db.supplier, "s_suppkey", ("s_region",), profile
        )
        keys = np.array([0, db.supplier.n_rows + 1], dtype=np.int64)
        selection, values, _ = operators.probe_dimension(
            join_index, keys, db.supplier, ("s_region",), payload=("s_region",)
        )
        assert selection.size == 0 and values["s_region"].size == 0


class TestGroupAggregate:
    def test_empty_input(self):
        result, traffic = operators.group_aggregate(
            [], np.empty(0, dtype=np.int64), intermediate_width=12
        )
        assert result.n_groups == 0
        assert traffic.cpu_tuples == 0

    def test_scalar_aggregate(self):
        measure = np.asarray([1, 2, 3], dtype=np.int64)
        result, _ = operators.group_aggregate([], measure, intermediate_width=8)
        assert result.as_dict() == {(): 6}

    def test_grouped_sums(self):
        keys = np.asarray([1, 2, 1, 2, 1])
        measure = np.asarray([10, 20, 30, 40, 50], dtype=np.int64)
        result, _ = operators.group_aggregate([keys], measure, intermediate_width=12)
        assert result.as_dict() == {(1,): 90, (2,): 60}

    def test_intermediate_materialisation_charged(self):
        keys = np.arange(1000)
        measure = np.ones(1000, dtype=np.int64)
        _, traffic = operators.group_aggregate([keys], measure, intermediate_width=12)
        assert traffic.seq_write_bytes == 12000
        assert traffic.seq_read_bytes == 12000

    def test_misaligned_columns_rejected(self):
        with pytest.raises(QueryError):
            operators.group_aggregate(
                [np.arange(3)], np.ones(4, dtype=np.int64), intermediate_width=8
            )


def _reference_group_aggregate(group_columns, measure):
    """The grouping the engine used before: ``np.unique`` rows + ``np.add.at``."""
    stacked = np.stack([c.astype(np.int64) for c in group_columns], axis=1)
    uniques, inverse = np.unique(stacked, axis=0, return_inverse=True)
    sums = np.zeros(len(uniques), dtype=np.int64)
    np.add.at(sums, inverse.ravel(), measure.astype(np.int64))
    return [tuple(int(x) for x in row) for row in uniques], sums.tolist()


class TestGroupAggregateMatchesReference:
    @pytest.mark.parametrize("n_columns", [1, 2, 3])
    @pytest.mark.parametrize("cardinality", [3, 50, 10**6])
    def test_random_int64_columns(self, n_columns, cardinality):
        rng = np.random.default_rng(cardinality + n_columns)
        n = 5_000
        # Negative values and values past 20 bits (and past 32) included.
        scale = np.array([1, 2**21 + 1, 2**40 + 3])
        columns = [
            rng.integers(-cardinality, cardinality, size=n) * scale[i % 3]
            for i in range(n_columns)
        ]
        columns[0][:3] = [-(2**63), 2**63 - 1, 0]
        measure = rng.integers(-(2**40), 2**40, size=n)
        result, _ = operators.group_aggregate(columns, measure, intermediate_width=8)
        keys, sums = _reference_group_aggregate(columns, measure)
        assert result.keys == keys
        assert result.sums.tolist() == sums

    def test_narrow_dtypes(self):
        rng = np.random.default_rng(1)
        columns = [
            rng.integers(-100, 100, size=1_000).astype(np.int8),
            rng.integers(0, 3, size=1_000).astype(np.int16),
        ]
        measure = rng.integers(0, 10**6, size=1_000).astype(np.int32)
        result, _ = operators.group_aggregate(columns, measure, intermediate_width=8)
        keys, sums = _reference_group_aggregate(columns, measure)
        assert result.keys == keys
        assert result.sums.tolist() == sums


class TestMaterializeAndGather:
    def test_materialize_charges_both_directions(self):
        traffic = operators.materialize_positions(1000, "x")
        assert traffic.seq_write_bytes == 8000
        assert traffic.seq_read_bytes == 8000

    def test_fact_gather_is_random_into_fact_region(self):
        traffic = operators.fact_gather(500, column_bytes=1e9, label="lo_revenue")
        assert traffic.random_reads == 500
        assert traffic.random_read_size == 64
        assert traffic.region_table == "lineorder"
