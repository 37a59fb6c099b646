"""Tests for the Dash-like and chained hash indexes."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.memsim.constants import CACHE_LINE, OPTANE_LINE
from repro.ssb.hashindex import BUCKET_SLOTS, ChainedIndex, DashIndex
from repro.ssb.hashindex.dash import _EMPTY


@pytest.fixture
def keys():
    rng = np.random.default_rng(11)
    return rng.choice(100_000, size=5_000, replace=False).astype(np.int64)


class TestDashCorrectness:
    def test_insert_get(self):
        index = DashIndex()
        index.insert(42, 7)
        assert index.get(42) == 7
        assert len(index) == 1

    def test_overwrite(self):
        index = DashIndex()
        index.insert(42, 7)
        index.insert(42, 9)
        assert index.get(42) == 9
        assert len(index) == 1

    def test_missing_key_raises(self):
        index = DashIndex()
        with pytest.raises(KeyError):
            index.get(123)

    def test_missing_key_default(self):
        index = DashIndex()
        assert index.get(123, default=-1) == -1

    def test_contains(self):
        index = DashIndex()
        index.insert(5, 50)
        assert 5 in index
        assert 6 not in index

    def test_bulk_round_trip(self, keys):
        index = DashIndex()
        index.bulk_insert(keys, keys * 3)
        out = index.bulk_probe(keys)
        assert np.array_equal(out, keys * 3)

    def test_bulk_probe_misses(self, keys):
        index = DashIndex()
        index.bulk_insert(keys, keys)
        missing = np.arange(200_000, 200_100, dtype=np.int64)
        out = index.bulk_probe(missing, missing=-7)
        assert np.all(out == -7)

    def test_scalar_and_bulk_agree(self, keys):
        index = DashIndex()
        index.bulk_insert(keys, keys + 1)
        bulk = index.bulk_probe(keys[:100])
        scalars = [index.get(int(k)) for k in keys[:100]]
        assert bulk.tolist() == scalars

    def test_splits_happen_and_preserve_contents(self, keys):
        index = DashIndex(initial_depth=0)
        index.bulk_insert(keys, keys)
        assert index.segment_count > 1  # 5k keys overflow one segment
        out = index.bulk_probe(keys)
        assert np.array_equal(out, keys)

    def test_negative_and_large_keys(self):
        index = DashIndex()
        for key in (-5, 0, 2**40):
            index.insert(key, key % 97)
            assert index.get(key) == key % 97


class TestDashStructure:
    def test_bucket_is_one_optane_line(self):
        # 14 slots of fingerprint + key/value reference fit one 256 B line.
        assert BUCKET_SLOTS == 14

    def test_memory_counts_lines(self, keys):
        index = DashIndex()
        index.bulk_insert(keys, keys)
        assert index.memory_bytes % OPTANE_LINE == 0
        assert index.memory_bytes >= len(keys) / BUCKET_SLOTS * OPTANE_LINE

    def test_probe_traffic_is_line_granular(self, keys):
        index = DashIndex()
        index.bulk_insert(keys, keys)
        index.bulk_probe(keys[:1000])
        assert index.stats.access_size == OPTANE_LINE
        # A hit probe touches one or two buckets, misses add the stash.
        assert 1.0 <= index.stats.reads_per_probe <= 3.0

    def test_build_traffic_separate_from_probe(self, keys):
        index = DashIndex()
        index.bulk_insert(keys, keys)
        assert index.stats.probes == 0
        assert index.stats.bucket_writes >= len(keys)
        before = index.stats.read_bytes
        index.bulk_probe(keys[:10])
        assert index.stats.read_bytes > before


class TestChainedCorrectness:
    def test_insert_get(self):
        index = ChainedIndex()
        index.insert(42, 7)
        assert index.get(42) == 7

    def test_missing_raises(self):
        index = ChainedIndex()
        with pytest.raises(KeyError):
            index.get(1)

    def test_bulk_round_trip(self, keys):
        index = ChainedIndex(expected_size=len(keys))
        index.bulk_insert(keys, keys * 5)
        out = index.bulk_probe(keys)
        assert np.array_equal(out, keys * 5)

    def test_bulk_probe_misses(self, keys):
        index = ChainedIndex(expected_size=len(keys))
        index.bulk_insert(keys, keys)
        out = index.bulk_probe(np.arange(500_000, 500_050, dtype=np.int64))
        assert np.all(out == -1)

    def test_scalar_and_bulk_agree(self, keys):
        index = ChainedIndex(expected_size=len(keys))
        index.bulk_insert(keys, keys + 2)
        bulk = index.bulk_probe(keys[:50])
        scalars = [index.get(int(k)) for k in keys[:50]]
        assert bulk.tolist() == scalars

    def test_pool_grows(self):
        index = ChainedIndex(expected_size=2)
        for key in range(100):
            index.insert(key, key)
        assert len(index) == 100
        assert index.get(99) == 99

    def test_duplicate_keys_chain(self):
        # Join-build semantics: duplicates coexist, newest first.
        index = ChainedIndex()
        index.insert(1, 10)
        index.insert(1, 20)
        assert index.get(1) == 20


class TestChainedStructure:
    def test_node_is_one_cache_line(self, keys):
        index = ChainedIndex(expected_size=len(keys))
        index.bulk_insert(keys, keys)
        assert index.stats.access_size == CACHE_LINE

    def test_chain_walks_cost_dependent_reads(self, keys):
        index = ChainedIndex(expected_size=len(keys))
        index.bulk_insert(keys, keys)
        index.bulk_probe(keys)
        assert index.stats.reads_per_probe >= 1.0

    def test_average_chain_length_reasonable(self, keys):
        index = ChainedIndex(expected_size=len(keys))
        index.bulk_insert(keys, keys)
        assert 1.0 <= index.average_chain_length < 3.0


class TestDashVsChainedTrafficContrast:
    """The core PMEM argument: Dash probes move one 256 B line where the
    chain walks multiple dependent 64 B lines (each of which a PMEM
    device amplifies to 256 B internally)."""

    def test_dash_fewer_reads_per_probe_than_chain_hops(self, keys):
        dash = DashIndex()
        dash.bulk_insert(keys, keys)
        chained = ChainedIndex(expected_size=len(keys))
        chained.bulk_insert(keys, keys)
        dash.bulk_probe(keys)
        chained.bulk_probe(keys)
        # Dash touches at most ~2 lines; chains average > 1 hop and each
        # hop is a dependent access.
        assert dash.stats.reads_per_probe <= 2.5
        assert chained.stats.reads_per_probe >= 1.0


def _dash_layout(index):
    """Everything a build decides: segments, their contents, aliasing."""
    rows = {}
    segments = []
    aliasing = []
    for segment in index._directory:
        if id(segment) not in rows:
            rows[id(segment)] = len(segments)
            segments.append(segment)
        aliasing.append(rows[id(segment)])
    contents = [
        (
            s.local_depth,
            s.keys.tobytes(),
            s.values.tobytes(),
            s.fps.tobytes(),
            s.stash_keys.tobytes(),
            s.stash_values.tobytes(),
        )
        for s in segments
    ]
    return index.global_depth, len(index), index.stats, aliasing, contents


def _per_key_build(index, keys, values, assume_new=True):
    for key, value in zip(keys.tolist(), values.tolist()):
        index.insert(key, value, assume_new=assume_new)
    return index


class TestDashBulkMatchesPerKey:
    """The per-key ``insert``/``get`` path is the oracle for the bulk paths."""

    @pytest.mark.parametrize(
        "size,depth,seed",
        [(1, 1, 0), (700, 0, 1), (6_000, 0, 2), (12_000, 1, 3)],
    )
    def test_bulk_insert_layout_and_stats(self, size, depth, seed):
        rng = np.random.default_rng(seed)
        keys = rng.choice(10**9, size=size, replace=False).astype(np.int64)
        values = rng.integers(0, 2**40, size=size)
        bulk = DashIndex(initial_depth=depth)
        bulk.bulk_insert(keys, values)
        oracle = _per_key_build(DashIndex(initial_depth=depth), keys, values)
        assert _dash_layout(bulk) == _dash_layout(oracle)

    def test_splits_double_the_directory(self):
        keys = np.arange(7_000, dtype=np.int64)
        bulk = DashIndex(initial_depth=0)
        bulk.bulk_insert(keys, keys)
        oracle = _per_key_build(DashIndex(initial_depth=0), keys, keys)
        assert bulk.global_depth == 4
        assert bulk.segment_count < len(bulk._directory)  # aliased slots
        assert _dash_layout(bulk) == _dash_layout(oracle)

    def test_extreme_keys(self):
        keys = np.array(
            [0, 1, -1, 2**63 - 1, -(2**63), 2**40, -(2**40)], dtype=np.int64
        )
        bulk = DashIndex()
        bulk.bulk_insert(keys, np.arange(len(keys)))
        oracle = _per_key_build(DashIndex(), keys, np.arange(len(keys)))
        assert _dash_layout(bulk) == _dash_layout(oracle)

    def test_bulk_insert_into_non_empty_index(self):
        rng = np.random.default_rng(4)
        keys = rng.choice(10**8, size=5_000, replace=False).astype(np.int64)
        bulk = DashIndex()
        bulk.bulk_insert(keys[:1_500], keys[:1_500])
        bulk.insert(-7, 7)
        bulk.bulk_insert(keys[1_500:], keys[1_500:])
        oracle = _per_key_build(DashIndex(), keys[:1_500], keys[:1_500])
        oracle.insert(-7, 7)
        _per_key_build(oracle, keys[1_500:], keys[1_500:])
        assert _dash_layout(bulk) == _dash_layout(oracle)

    def test_duplicate_keys_overwrite_when_not_unique(self):
        rng = np.random.default_rng(5)
        keys = rng.integers(0, 1_500, size=4_000).astype(np.int64)
        values = np.arange(len(keys), dtype=np.int64)
        bulk = DashIndex()
        bulk.bulk_insert(keys[:1_000], values[:1_000], assume_unique=False)
        bulk.bulk_insert(keys[1_000:], values[1_000:], assume_unique=False)
        oracle = _per_key_build(DashIndex(), keys, values, assume_new=False)
        assert _dash_layout(bulk) == _dash_layout(oracle)
        assert len(bulk) == len(np.unique(keys))

    def test_bulk_probe_matches_get(self):
        rng = np.random.default_rng(6)
        keys = np.arange(7_000, dtype=np.int64)
        index = DashIndex(initial_depth=0)
        index.bulk_insert(keys, keys * 3 + 1)
        segments = {id(s): s for s in index._directory}.values()
        stashed = np.concatenate(
            [s.stash_keys[s.stash_keys != _EMPTY] for s in segments]
        )
        assert stashed.size  # the build overflowed into some stash
        misses = rng.integers(10**8, 2 * 10**8, size=500)
        probes = np.concatenate([keys[::2], stashed, misses, keys[-50:]])
        rng.shuffle(probes)
        oracle = DashIndex(initial_depth=0)
        oracle.bulk_insert(keys, keys * 3 + 1)
        bulk = index.bulk_probe(probes, missing=-5)
        singles = [oracle.get(key, default=-5) for key in probes.tolist()]
        assert bulk.tolist() == singles
        assert index.stats == oracle.stats
        assert index.stats.stash_reads >= stashed.size + misses.size

    def test_bulk_probe_spans_chunks(self, monkeypatch):
        from repro.ssb.hashindex import dash

        keys = np.arange(3_000, dtype=np.int64)
        probes = np.concatenate([keys, keys + 2_000])
        whole = DashIndex()
        whole.bulk_insert(keys, keys)
        expected = whole.bulk_probe(probes)
        monkeypatch.setattr(dash, "_PROBE_CHUNK", 1_000)
        chunked = DashIndex()
        chunked.bulk_insert(keys, keys)
        assert np.array_equal(chunked.bulk_probe(probes), expected)
        assert chunked.stats == whole.stats

    def test_bulk_insert_hashes_once(self, monkeypatch):
        """Per-key hashing must not creep back into the bulk build."""
        from repro.ssb.hashindex import dash

        calls = []
        real_mix = dash._mix

        def counting_mix(keys):
            calls.append(len(keys))
            return real_mix(keys)

        monkeypatch.setattr(dash, "_mix", counting_mix)
        index = DashIndex(initial_depth=0)
        index.bulk_insert(np.arange(4_000, dtype=np.int64), np.zeros(4_000))
        assert calls == [4_000]
        assert index.segment_count > 1  # splits replayed without rehashing

    def test_empty_marker_key_rejected(self):
        index = DashIndex()
        with pytest.raises(ConfigurationError):
            index.bulk_insert(np.array([1, -(2**62)]), np.array([1, 2]))
        with pytest.raises(ConfigurationError):
            index.insert(-(2**62), 1)
        assert len(index) == 0


class TestDashScalarHash:
    def test_scalar_hash_equals_vector_mix(self):
        from repro.ssb.hashindex.dash import _mix

        rng = np.random.default_rng(7)
        sample = rng.integers(-(2**63), 2**63 - 1, size=500, dtype=np.int64)
        keys = np.concatenate(
            [np.array([0, 1, -1, 2**63 - 1, -(2**63)], dtype=np.int64), sample]
        )
        index = DashIndex()
        expected = _mix(keys).tolist()
        assert [index._hash(key) for key in keys.tolist()] == expected
        assert [index._hash(key) for key in keys] == expected  # numpy scalars


class TestChainedBulkMatchesPerKey:
    @pytest.mark.parametrize("expected_size", [8, 4_000])
    def test_bulk_insert_links_like_prepends(self, expected_size):
        rng = np.random.default_rng(8)
        keys = rng.integers(0, 3_000, size=4_000).astype(np.int64)
        values = rng.integers(0, 10**6, size=4_000)
        bulk = ChainedIndex(expected_size=expected_size)
        bulk.bulk_insert(keys[:1_000], values[:1_000])
        bulk.bulk_insert(keys[1_000:], values[1_000:])
        oracle = ChainedIndex(expected_size=expected_size)
        for key, value in zip(keys.tolist(), values.tolist()):
            oracle.insert(key, value)
        size = len(oracle)
        assert len(bulk) == size
        assert np.array_equal(bulk._heads, oracle._heads)
        for name in ("_keys", "_values", "_next"):
            assert np.array_equal(
                getattr(bulk, name)[:size], getattr(oracle, name)[:size]
            )
        assert bulk.stats == oracle.stats
