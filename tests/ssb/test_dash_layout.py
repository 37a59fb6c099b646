"""Dash builds of the SSB engine share one index per dimension table.

A build for a second attribute set of a table, given the first as
``like``, shares its index. A fresh build of that set is the oracle: the
``build-index`` record, every segment array, the directory aliasing, the
depths, ``ProbeStats`` and ``bulk_probe`` on stored and absent keys must
match. An index of another table is never shared.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.ssb.dbgen import generate
from repro.ssb.engine import operators
from repro.ssb.storage import HANDCRAFTED_PMEM
from tests.ssb.test_hashindex import _dash_layout

#: Per dimension: key column and two attribute sets the SSB joins pack.
DIMENSIONS = {
    "date": ("d_datekey", ("d_year",), ("d_yearmonthnum", "d_year")),
    "customer": ("c_custkey", ("c_region", "c_nation"), ("c_city",)),
    "supplier": ("s_suppkey", ("s_region", "s_city"), ("s_nation",)),
    "part": ("p_partkey", ("p_category", "p_brand1"), ("p_mfgr",)),
}


@pytest.fixture(scope="module")
def db():
    return generate(scale_factor=0.01, seed=7)


def _probe(index, probes):
    """``bulk_probe`` output and the stats it leaves."""
    out = index.bulk_probe(probes, missing=-3)
    return out.tolist(), asdict(index.stats)


def _probes(keys, rng):
    """Stored keys in random order plus absent keys inside and outside the span."""
    absent = np.concatenate(
        [
            rng.integers(int(keys.min()), int(keys.max()) + 1, size=200),
            rng.integers(10**12, 10**13, size=50),
            np.array([-1, 0, -(2**63), 2**63 - 1]),
        ]
    ).astype(np.int64)
    absent = absent[~np.isin(absent, keys)]
    probes = np.concatenate([keys, absent])
    rng.shuffle(probes)
    return probes


class TestEngineBuildsReuseTheLayout:
    @pytest.mark.parametrize("table", sorted(DIMENSIONS))
    def test_reused_build_equals_fresh_build(self, db, table):
        key, attrs, other = DIMENSIONS[table]
        dim = db.table(table)
        profile = HANDCRAFTED_PMEM
        first = operators.build_dimension_index(dim, key, attrs, profile)
        fresh = operators.build_dimension_index(dim, key, other, profile)
        shared = operators.build_dimension_index(dim, key, other, profile, like=first)
        assert shared.index is first.index
        assert shared.packed_attrs == fresh.packed_attrs == other
        assert asdict(shared.build_traffic) == asdict(fresh.build_traffic)
        assert _dash_layout(shared.index) == _dash_layout(fresh.index)
        probes = _probes(dim[key].astype(np.int64), np.random.default_rng(5))
        assert _probe(shared.index, probes) == _probe(fresh.index, probes)

    def test_layout_of_other_keys_is_not_reused(self, db):
        profile = HANDCRAFTED_PMEM
        supplier = operators.build_dimension_index(
            db.supplier, "s_suppkey", ("s_region",), profile
        )
        fresh = operators.build_dimension_index(
            db.customer, "c_custkey", ("c_region",), profile
        )
        other = operators.build_dimension_index(
            db.customer, "c_custkey", ("c_region",), profile, like=supplier
        )
        assert other.index is not supplier.index
        assert asdict(other.build_traffic) == asdict(fresh.build_traffic)
        assert _dash_layout(other.index) == _dash_layout(fresh.index)
