"""The resolved lookup table behind ``bulk_probe``, checked against ``get``.

Per-key ``get`` walks the index structure and is the oracle: for every key
set (dense or sparse domain, negative values, repeated keys) and every
probe (stored keys, misses inside and outside the key span), ``bulk_probe``
must return the same values and charge the same statistics.
"""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ssb.engine import SsbExecutor, operators
from repro.ssb.hashindex import ChainedIndex, DashIndex
from repro.ssb.hashindex.dash import _EMPTY, LookupTable
from repro.ssb.queries import ALL_QUERIES
from repro.ssb.runner import SsbRunner
from repro.ssb.storage import HANDCRAFTED_PMEM, HYRISE_PMEM

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


@st.composite
def indexed_keys(draw):
    """Keys, values and probes drawn from numpy under hypothesis' seeds.

    ``dense`` keys fill a short span (direct addressing); ``sparse`` keys
    spread over 2**40 (binary search). Repeated keys and any int64 value,
    negative ones included, are allowed.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    domain = draw(st.sampled_from(["dense", "sparse"]))
    n = draw(st.integers(0, 2_500))
    low = draw(st.integers(-(2**40), 2**40))
    if domain == "dense":
        width = max(n // draw(st.sampled_from([1, 2, 8])), 1)
    else:
        width = 2**40
    keys = low + rng.integers(0, width, size=n)
    values = rng.integers(INT64_MIN, INT64_MAX, size=n, endpoint=True)
    stored = rng.choice(keys, size=min(n, 400)) if n else keys
    probes = np.concatenate(
        (
            stored,
            low + rng.integers(-50, width + 50, size=300),
            np.array([INT64_MIN, INT64_MAX, low - 1, low + width], dtype=np.int64),
        )
    )
    return keys.astype(np.int64), values, rng.permutation(probes)


def _agrees_with_get(build, keys, values, probes, missing=-1):
    index, oracle = build(), build()
    for built in (index, oracle):
        if len(keys):
            built.bulk_insert(keys, values)
    bulk = index.bulk_probe(probes, missing=missing)
    singles = [oracle.get(key, default=missing) for key in probes.tolist()]
    assert bulk.tolist() == singles
    assert index.stats == oracle.stats
    return index, oracle


class TestBulkProbeMatchesGet:
    @given(case=indexed_keys())
    @settings(max_examples=25, deadline=None)
    def test_dash(self, case):
        keys, values, probes = case
        _agrees_with_get(lambda: DashIndex(initial_depth=0), keys, values, probes)

    @given(case=indexed_keys())
    @settings(max_examples=25, deadline=None)
    def test_chained(self, case):
        keys, values, probes = case
        _agrees_with_get(
            lambda: ChainedIndex(expected_size=max(len(keys) // 4, 1)),
            keys,
            values,
            probes,
        )

    @given(case=indexed_keys(), missing=st.integers(INT64_MIN, INT64_MAX))
    @settings(max_examples=10, deadline=None)
    def test_missing_marker_is_any_int64(self, case, missing):
        keys, values, probes = case
        _agrees_with_get(DashIndex, keys, values, probes, missing=missing)
        _agrees_with_get(ChainedIndex, keys, values, probes, missing=missing)

    def test_dash_repeated_keys_resolve_like_get(self):
        # A join build over repeated keys stores every copy; ``get`` returns
        # the first copy it meets, and so must ``bulk_probe``.
        rng = np.random.default_rng(1)
        keys = rng.integers(0, 1_500, size=3_000).astype(np.int64)
        values = np.arange(len(keys), dtype=np.int64)
        index, oracle = DashIndex(), DashIndex()
        for built in (index, oracle):
            built.bulk_insert(keys, values, assume_unique=True)
        probes = np.unique(keys)
        bulk = index.bulk_probe(probes)
        assert bulk.tolist() == [oracle.get(key) for key in probes.tolist()]
        assert index.stats == oracle.stats

    def test_chained_long_chains(self):
        # Far more keys than buckets: chain positions exceed one byte.
        keys = np.arange(4_000, dtype=np.int64)
        index, _ = _agrees_with_get(
            lambda: ChainedIndex(expected_size=8),
            keys,
            keys * 7,
            np.concatenate((keys, keys + 3_900)),
        )
        assert index.stats.reads_per_probe > 255

    def test_empty_marker_probe_misses(self):
        keys = np.arange(100, dtype=np.int64)
        _agrees_with_get(DashIndex, keys, keys, np.array([_EMPTY, 5]))


class TestTableLifetime:
    @pytest.mark.parametrize("kind", [DashIndex, ChainedIndex])
    @pytest.mark.parametrize(
        "add",
        [
            lambda index: index.insert(3, -6),
            lambda index: index.bulk_insert(np.array([3, 10**12]), np.array([-6, -7])),
        ],
        ids=["insert", "bulk_insert"],
    )
    def test_insert_after_probe_is_seen(self, kind, add):
        keys = np.arange(0, 2_000, 2, dtype=np.int64)
        index, oracle = kind(), kind()
        probes = np.arange(-10, 2_010, dtype=np.int64)
        for built in (index, oracle):
            built.bulk_insert(keys, keys + 1)
        index.bulk_probe(probes)
        for key in probes.tolist():
            oracle.get(key, default=-1)
        add(index)
        add(oracle)
        bulk = index.bulk_probe(probes)
        assert bulk.tolist() == [oracle.get(key, default=-1) for key in probes.tolist()]
        assert bulk[probes == 3].tolist() == [-6]
        assert index.stats == oracle.stats

    def test_dash_split_after_probe_is_seen(self):
        index = DashIndex(initial_depth=0)
        index.bulk_insert(np.arange(500), np.arange(500))
        index.bulk_probe(np.arange(10))
        for key in range(500, 2_000):
            index.insert(key, -key)
        assert index.segment_count > 1
        probes = np.arange(2_000)
        expected = np.where(probes < 500, probes, -probes)
        assert np.array_equal(index.bulk_probe(probes), expected)

    def test_dense_and_sparse_addressing(self):
        codes = np.zeros(3, dtype=np.uint8)
        dense = LookupTable(np.array([5, 9, 7]), np.array([1, 2, 3]), codes, 4)
        sparse = LookupTable(np.array([5, 2**40, 7]), np.array([1, 2, 3]), codes, 4)
        assert dense.domain is None and sparse.domain is not None
        probes = np.array([5, 6, 7, 9, 2**40, -1, INT64_MIN, INT64_MAX])
        for table, hits in ((dense, [5, 7, 9]), (sparse, [5, 7, 2**40])):
            found = table.codes[table.rows(probes)] == 0
            assert probes[found].tolist() == hits


class TestContains:
    @pytest.mark.parametrize("kind", [DashIndex, ChainedIndex])
    @pytest.mark.parametrize("value", [-1, -2, _EMPTY, INT64_MIN, 0])
    def test_any_stored_value_is_present(self, kind, value):
        index = kind()
        index.insert(5, value)
        assert 5 in index
        assert 6 not in index
        assert index.stats.probes == 2  # one charged probe each


class TestExecutorReusesIndexes:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Every ``build_dimension_index`` call as (table, key, attrs, kind)."""
        calls = []
        real = operators.build_dimension_index

        def counting(dim, key_column, attrs, profile, **kwargs):
            calls.append((dim.spec.name, key_column, attrs, profile.index_kind))
            return real(dim, key_column, attrs, profile, **kwargs)

        monkeypatch.setattr(operators, "build_dimension_index", counting)
        return calls

    def test_each_index_built_once_with_identical_traffic(self, builds):
        runner = SsbRunner(measured_sf=0.01, seed=5)
        runner.figure14a()
        runner.figure14b()
        assert builds and len(builds) == len(set(builds))
        for profile in (HYRISE_PMEM, HANDCRAFTED_PMEM):
            shared = runner._traffic[runner._engine_key(profile)]
            for query in ALL_QUERIES:
                alone = SsbExecutor(runner.db, profile).execute(query).traffic
                assert [asdict(op) for op in shared[query.name].operators] == [
                    asdict(op) for op in alone.operators
                ]

    def test_executors_do_not_share(self, builds):
        db = SsbRunner(measured_sf=0.01, seed=5).db
        query = ALL_QUERIES[3]
        SsbExecutor(db, HYRISE_PMEM).execute(query)
        once = len(builds)
        SsbExecutor(db, HYRISE_PMEM).execute(query)
        assert once and len(builds) == 2 * once
