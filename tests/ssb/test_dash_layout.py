"""A reused Dash layout, checked against a fresh ``bulk_insert``.

``DashIndex.from_layout`` writes a second value set into the cells an
earlier build's replay chose. The fresh build of the same keys with those
values is the oracle: every segment array, the directory aliasing, the
depths, ``ProbeStats`` and ``bulk_probe`` on stored and absent keys must
match, and so must the engine's ``build-index`` record.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.ssb.dbgen import generate
from repro.ssb.engine import operators
from repro.ssb.hashindex import DashIndex
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


class TestFromLayout:
    @pytest.mark.parametrize("assume_unique", [True, False])
    def test_repeated_keys(self, assume_unique):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 2_000, size=6_000).astype(np.int64)
        first = np.arange(len(keys), dtype=np.int64)
        second = rng.integers(-(2**62), 2**62, size=len(keys))
        template = DashIndex(initial_depth=0)
        template.bulk_insert(keys, first, assume_unique=assume_unique)
        fresh = DashIndex(initial_depth=0)
        fresh.bulk_insert(keys, second, assume_unique=assume_unique)

        reused = DashIndex.from_layout(template.layout, second)
        assert _dash_layout(reused) == _dash_layout(fresh)
        probes = _probes(np.unique(keys), rng)
        assert _probe(reused, probes) == _probe(fresh, probes)

    def test_layout_is_kept_only_for_a_build_into_an_empty_index(self):
        keys = np.arange(3_000, dtype=np.int64)
        index = DashIndex()
        index.bulk_insert(keys, keys)
        assert index.layout is not None and index.layout.holds(keys)
        assert not index.layout.holds(keys[::-1])
        index.insert(-5, 5)
        assert index.layout is None
        index.bulk_insert(keys + 10_000, keys)
        assert index.layout is None

    def test_values_must_align(self):
        index = DashIndex()
        index.bulk_insert(np.arange(10), np.arange(10))
        with pytest.raises(ConfigurationError):
            DashIndex.from_layout(index.layout, np.arange(9))

    def test_reused_index_owns_its_arrays(self):
        keys = np.arange(2_000, dtype=np.int64)
        template = DashIndex()
        template.bulk_insert(keys, keys)
        before = _dash_layout(template)
        reused = DashIndex.from_layout(template.layout, keys * 2)
        reused.insert(10**9, 1)
        assert _dash_layout(template) == before


class TestEngineBuildsReuseTheLayout:
    @pytest.mark.parametrize("table", sorted(DIMENSIONS))
    def test_reused_build_equals_fresh_build(self, db, table):
        key, attrs, other = DIMENSIONS[table]
        dim = db.table(table)
        profile = HANDCRAFTED_PMEM
        template = operators.build_dimension_index(dim, key, attrs, profile)
        fresh = operators.build_dimension_index(dim, key, other, profile)
        reused = operators.build_dimension_index(
            dim, key, other, profile, like=template
        )
        assert reused.index is not fresh.index
        assert reused.packed_attrs == fresh.packed_attrs == other
        assert asdict(reused.build_traffic) == asdict(fresh.build_traffic)
        assert _dash_layout(reused.index) == _dash_layout(fresh.index)
        probes = _probes(dim[key].astype(np.int64), np.random.default_rng(5))
        assert _probe(reused.index, probes) == _probe(fresh.index, probes)

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
        assert _dash_layout(other.index) == _dash_layout(fresh.index)
