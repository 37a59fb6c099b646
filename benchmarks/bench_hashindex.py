"""Wall-time benchmarks of the hash-index implementations themselves.

These measure the *Python* implementations (not the modeled PMEM), which
matters for users of the library: bulk builds and probes are the hot path
of every SSB execution. Every run also checks the bulk paths against the
per-key ``insert``/``get`` oracle, so a speedup that changes the index
layout or its traffic statistics fails here.

Each bench runs on two key domains, one per addressing mode of the
probe's lookup table: ``sparse`` keys spread over 2**40 (binary search)
and SSB-shaped ``dates``, ``yyyymmdd`` keys of 1992-1998 (direct offsets).
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.ssb.hashindex import ChainedIndex, DashIndex

N_KEYS = 20_000
N_PROBES = 200_000


def date_keys() -> np.ndarray:
    """The SSB date dimension's ``yyyymmdd`` keys, 1992-01-01 to 1998-12-31."""
    days = np.arange("1992-01-01", "1999-01-01", dtype="datetime64[D]")
    return np.char.replace(days.astype(str), "-", "").astype(np.int64)


@pytest.fixture(scope="module", params=["sparse", "dates"])
def data(request):
    rng = np.random.default_rng(3)
    if request.param == "dates":
        keys = date_keys()
    else:
        keys = rng.choice(2**40, size=N_KEYS, replace=False).astype(np.int64)
    probes = rng.choice(keys, size=N_PROBES).astype(np.int64)
    return keys, probes


def oracle_checked(probes: np.ndarray) -> np.ndarray:
    """Probes for the oracle check: hits, neighbours of hits, far misses."""
    return np.concatenate((probes[:2_000], probes[:200] + 1, -probes[:100] - 1))


def assert_probe_matches(index, oracle, probes: np.ndarray) -> None:
    """``index.bulk_probe`` equals the oracle's ``get`` in values and stats."""
    bulk_before = asdict(index.stats)
    oracle_before = asdict(oracle.stats)
    bulk = index.bulk_probe(probes)
    singles = [oracle.get(key, default=-1) for key in probes.tolist()]
    assert bulk.tolist() == singles
    assert stats_delta(index.stats, bulk_before) == stats_delta(
        oracle.stats, oracle_before
    )


def stats_delta(stats, before: dict[str, int]) -> dict[str, int]:
    return {name: value - before[name] for name, value in asdict(stats).items()}


def dash_layout(index: DashIndex) -> tuple:
    """Global depth, size, stats, directory aliasing and segment bytes."""
    rows: dict[int, int] = {}
    contents = []
    aliasing = []
    for segment in index._directory:
        if id(segment) not in rows:
            rows[id(segment)] = len(rows)
            contents.append(
                (segment.local_depth, segment.keys.tobytes(),
                 segment.values.tobytes(), segment.fps.tobytes(),
                 segment.stash_keys.tobytes(), segment.stash_values.tobytes())
            )
        aliasing.append(rows[id(segment)])
    return index.global_depth, len(index), asdict(index.stats), aliasing, contents


@pytest.fixture(scope="module")
def per_key_dash(data):
    """The oracle: the same build through the single-key path.

    Returns the index and its layout as built, before any probe.
    """
    keys, _ = data
    index = DashIndex()
    for key in keys.tolist():
        index.insert(key, key * 2, assume_new=True)
    return index, dash_layout(index)


@pytest.fixture(scope="module")
def per_key_chained(data):
    """The chained oracle: the same build through single-key prepends."""
    keys, _ = data
    index = ChainedIndex(expected_size=len(keys))
    for key in keys.tolist():
        index.insert(key, key * 2)
    return index


@pytest.fixture(scope="module")
def dash(data):
    keys, _ = data
    index = DashIndex()
    index.bulk_insert(keys, keys * 2)
    return index


@pytest.fixture(scope="module")
def chained(data):
    keys, _ = data
    index = ChainedIndex(expected_size=len(keys))
    index.bulk_insert(keys, keys * 2)
    return index


def test_dash_bulk_probe(benchmark, dash, per_key_dash, data):
    _, probes = data
    oracle, _ = per_key_dash
    out = benchmark(dash.bulk_probe, probes)
    assert (out == probes * 2).all()
    # Same values and traffic as single-key gets, misses included.
    assert_probe_matches(dash, oracle, oracle_checked(probes))
    benchmark.extra_info["probes"] = N_PROBES
    benchmark.extra_info["reads_per_probe"] = round(dash.stats.reads_per_probe, 2)


def test_chained_bulk_probe(benchmark, chained, per_key_chained, data):
    _, probes = data
    out = benchmark(chained.bulk_probe, probes)
    assert (out == probes * 2).all()
    assert_probe_matches(chained, per_key_chained, oracle_checked(probes))
    benchmark.extra_info["probes"] = N_PROBES
    benchmark.extra_info["reads_per_probe"] = round(
        chained.stats.reads_per_probe, 2
    )


def test_dash_bulk_build(benchmark, per_key_dash, data):
    keys, _ = data

    def build():
        index = DashIndex()
        index.bulk_insert(keys, keys * 2)
        return index

    index = benchmark(build)
    assert len(index) == len(keys)
    _, oracle_layout = per_key_dash
    assert dash_layout(index) == oracle_layout
    benchmark.extra_info["keys"] = N_KEYS
    benchmark.extra_info["segments"] = index.segment_count


def test_chained_bulk_build(benchmark, data):
    keys, _ = data

    def build():
        index = ChainedIndex(expected_size=len(keys))
        index.bulk_insert(keys, keys)
        return index

    index = benchmark(build)
    assert len(index) == len(keys)
