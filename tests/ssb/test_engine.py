"""Engine correctness tests: every query checked against a brute-force
numpy reference implementation, across both system profiles."""

import functools

import numpy as np
import pytest

from repro.errors import QueryError
from repro.obs import CountersRecorder
from repro.ssb.dbgen import generate
from repro.ssb.engine import SsbExecutor, operators
from repro.ssb.hashindex import ChainedIndex, DashIndex
from repro.ssb.queries import ALL_QUERIES, get_query
from repro.ssb.storage import HANDCRAFTED_PMEM, HYRISE_PMEM


@pytest.fixture(scope="module")
def db():
    return generate(scale_factor=0.02, seed=5)


@pytest.fixture(scope="module")
def executor(db):
    return SsbExecutor(db, HANDCRAFTED_PMEM)


def brute_force(db, query):
    """Reference implementation: dictionaries + per-row loop semantics,
    vectorised with numpy for speed but structurally independent of the
    engine under test."""
    lo = db.lineorder
    mask = np.ones(lo.n_rows, dtype=bool)
    for predicate in query.fact_filters:
        mask &= predicate.evaluate(lo[predicate.column])

    payloads = {}
    for join in query.joins:
        dim = db.table(join.table)
        dim_mask = np.ones(dim.n_rows, dtype=bool)
        for predicate in join.filters:
            dim_mask &= predicate.evaluate(dim[predicate.column])
        keys = dim[join.dim_key]
        # Dense 1-based keys for dims; date keys are sparse -> use a map.
        lookup = np.full(int(keys.max()) + 1, -1, dtype=np.int64)
        lookup[keys[dim_mask]] = np.nonzero(dim_mask)[0]
        fk = lo[join.fact_key]
        positions = np.where(
            (fk >= 0) & (fk <= keys.max()), lookup[np.clip(fk, 0, keys.max())], -1
        )
        mask &= positions >= 0
        payloads[join.table] = (join, positions)

    rows = np.nonzero(mask)[0]
    group_cols = []
    for column in query.group_by:
        for join, positions in payloads.values():
            dim = db.table(join.table)
            if column in dim.spec.column_names():
                group_cols.append(dim[column][positions[rows]].astype(np.int64))
                break
        else:
            raise AssertionError(f"column {column} not found")
    measure = query.aggregate.compute(lo.take(rows))
    if not group_cols:
        return {(): int(measure.sum())} if len(rows) else {(): 0}
    stacked = np.stack(group_cols, axis=1)
    uniques, inverse = np.unique(stacked, axis=0, return_inverse=True)
    sums = np.zeros(len(uniques), dtype=np.int64)
    np.add.at(sums, inverse, measure)
    return {tuple(int(x) for x in key): int(v) for key, v in zip(uniques, sums)}


class TestCorrectnessAgainstBruteForce:
    @pytest.mark.parametrize("name", [q.name for q in ALL_QUERIES])
    def test_query_matches_reference(self, db, executor, name):
        query = get_query(name)
        result = executor.execute(query)
        expected = brute_force(db, query)
        if not expected.get((), 1) and not result.groups:
            return  # both empty
        assert result.groups == expected

    def test_profiles_agree(self, db):
        aware = SsbExecutor(db, HANDCRAFTED_PMEM)
        unaware = SsbExecutor(db, HYRISE_PMEM)
        for query in ALL_QUERIES:
            assert aware.execute(query).groups == unaware.execute(query).groups


class TestResults:
    def test_flight1_scalar(self, executor):
        result = executor.execute(get_query("Q1.1"))
        assert result.scalar > 0
        assert result.n_groups == 1

    def test_grouped_query_rejects_scalar(self, executor):
        result = executor.execute(get_query("Q2.1"))
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            _ = result.scalar

    def test_selectivity_ordering(self, executor):
        # Within a flight, later queries are more selective (SSB design).
        q21 = executor.execute(get_query("Q2.1")).qualifying_rows
        q22 = executor.execute(get_query("Q2.2")).qualifying_rows
        q23 = executor.execute(get_query("Q2.3")).qualifying_rows
        assert q21 > q22 > q23

    def test_group_keys_have_query_arity(self, executor):
        result = executor.execute(get_query("Q3.1"))
        assert all(len(key) == 3 for key in result.groups)

    def test_q31_years_in_filter_range(self, executor):
        result = executor.execute(get_query("Q3.1"))
        years = {key[2] for key in result.groups}
        assert years <= set(range(1992, 1998))


class TestTrafficAccounting:
    def test_every_query_records_fact_scan(self, executor):
        for query in ALL_QUERIES:
            traffic = executor.execute(query).traffic
            assert traffic.operators[0].name == "fact-scan"
            assert traffic.operators[0].seq_read_bytes > 0

    def test_row128_scan_volume(self, db, executor):
        traffic = executor.execute(get_query("Q1.1")).traffic
        assert traffic.operators[0].seq_read_bytes == db.lineorder.n_rows * 128

    def test_columnar_scan_is_smaller(self, db):
        unaware = SsbExecutor(db, HYRISE_PMEM)
        traffic = unaware.execute(get_query("Q1.1")).traffic
        assert traffic.operators[0].seq_read_bytes < db.lineorder.n_rows * 128

    def test_probe_traffic_granularity(self, db, executor):
        traffic = executor.execute(get_query("Q2.1")).traffic
        probes = [op for op in traffic.operators if op.name.startswith("probe(")]
        assert probes
        assert all(op.random_read_size == 256 for op in probes)  # Dash buckets

    def test_unaware_probe_traffic_granularity(self, db):
        unaware = SsbExecutor(db, HYRISE_PMEM)
        traffic = unaware.execute(get_query("Q2.1")).traffic
        probes = [op for op in traffic.operators if op.name.startswith("probe(")]
        assert all(op.random_read_size == 64 for op in probes)  # chain nodes

    def test_unaware_gathers_fact_columns(self, db):
        unaware = SsbExecutor(db, HYRISE_PMEM)
        traffic = unaware.execute(get_query("Q2.1")).traffic
        gathers = [op for op in traffic.operators if op.name.startswith("fact-gather")]
        assert gathers  # later join keys + measures are positional

    def test_aware_does_not_gather(self, executor):
        traffic = executor.execute(get_query("Q2.1")).traffic
        assert not [
            op for op in traffic.operators if op.name.startswith("fact-gather")
        ]

    def test_dash_build_charged_outside_queries(self, db):
        executor = SsbExecutor(db, HANDCRAFTED_PMEM)
        traffic = executor.execute(get_query("Q2.1")).traffic
        assert not [op for op in traffic.operators if op.name.startswith("build-")]
        assert executor.build_traffic.operators  # charged to the load phase

    def test_chained_build_charged_to_query(self, db):
        executor = SsbExecutor(db, HYRISE_PMEM)
        traffic = executor.execute(get_query("Q2.1")).traffic
        assert [op for op in traffic.operators if op.name.startswith("build-")]

    def test_scaled_traffic_is_linear(self, executor):
        traffic = executor.execute(get_query("Q2.1")).traffic
        doubled = traffic.scaled(2.0)
        assert doubled.seq_read_bytes == pytest.approx(2 * traffic.seq_read_bytes)
        assert doubled.random_reads == pytest.approx(2 * traffic.random_reads)
        assert doubled.cpu_tuples == pytest.approx(2 * traffic.cpu_tuples)

    def test_region_factors_override_region_scaling(self, executor):
        traffic = executor.execute(get_query("Q2.1")).traffic
        scaled = traffic.scaled(1000.0, region_factors={"part": 7.0, "date": 1.0})
        part_probe = next(
            op for op in scaled.operators if op.name == "probe(part)"
        )
        original = next(
            op for op in traffic.operators if op.name == "probe(part)"
        )
        assert part_probe.random_region_bytes == pytest.approx(
            7.0 * original.random_region_bytes
        )
        assert part_probe.random_reads == pytest.approx(1000 * original.random_reads)


class _Unreplayed(SsbExecutor):
    """The oracle: probes every stored fact column afresh."""

    def _stored_probe(self, join, join_index):
        probe = operators.probe_keys(
            join_index,
            self.db.lineorder[join.fact_key],
            self.db.table(join.table).n_rows,
        )
        return probe, False


def _stored_first(query):
    """The (table, fact column) a query probes as stored, if any."""
    if query.fact_filters or not query.joins:
        return None
    return query.joins[0].table, query.joins[0].fact_key


_ORDERS = {
    "forward": ALL_QUERIES,
    "reverse": ALL_QUERIES[::-1],
    "twice": tuple(q for query in ALL_QUERIES for q in (query, query)),
}


@functools.lru_cache(maxsize=2)
def _small_db(seed):
    return generate(scale_factor=0.01, seed=seed)


@functools.lru_cache(maxsize=4)
def _fresh_results(seed, profile):
    """Each query run on an executor of its own."""
    db = _small_db(seed)
    return {q.name: SsbExecutor(db, profile).execute(q) for q in ALL_QUERIES}


@pytest.mark.parametrize("seed", [1, 2021])
@pytest.mark.parametrize(
    "profile", [HANDCRAFTED_PMEM, HYRISE_PMEM], ids=["dash", "chained"]
)
class TestStoredColumnProbe:
    @pytest.mark.parametrize("order", sorted(_ORDERS))
    def test_replay_matches_fresh_execution(self, seed, profile, order):
        db = _small_db(seed)
        executor = SsbExecutor(db, profile)
        oracle = _Unreplayed(db, profile)
        fresh = _fresh_results(seed, profile)
        for query in _ORDERS[order]:
            result = executor.execute(query)
            expected = fresh[query.name]
            assert result.traffic == expected.traffic
            assert result.groups == expected.groups
            assert result.qualifying_rows == expected.qualifying_rows
            assert oracle.execute(query).traffic == result.traffic
        assert executor.build_traffic == oracle.build_traffic
        # Each index holds the stats of an index probed by bulk_probe calls.
        assert executor._index_cache.keys() == oracle._index_cache.keys()
        for key, built in executor._index_cache.items():
            assert built.index.stats == oracle._index_cache[key].index.stats

    def test_stored_rows_are_read_only(self, seed, profile):
        executor = SsbExecutor(_small_db(seed), profile)
        for query in ALL_QUERIES:
            executor.execute(query)
        assert executor._stored_probes
        for _, probe in executor._stored_probes.values():
            assert not probe.rows.flags.writeable
            with pytest.raises(ValueError):
                probe.rows[0] = 0

    def test_each_stored_column_is_probed_once(self, seed, profile, monkeypatch):
        db = _small_db(seed)
        probed = []
        for cls in (DashIndex, ChainedIndex):
            original = cls.bulk_probe

            def counting(index, keys, missing=-1, _original=original):
                probed.append((index, keys))
                return _original(index, keys, missing)

            monkeypatch.setattr(cls, "bulk_probe", counting)
        executor = SsbExecutor(db, profile)
        queries = ALL_QUERIES + ALL_QUERIES[::-1]
        for query in queries:
            executor.execute(query)
        table_of = {
            id(built.index): table
            for (table, _), built in executor._index_cache.items()
        }
        stored = [
            (table_of[id(index)], column)
            for index, keys in probed
            for column in ("lo_custkey", "lo_partkey", "lo_suppkey", "lo_orderdate")
            if keys is db.lineorder[column]
        ]
        expected = {_stored_first(q) for q in queries} - {None}
        assert sorted(stored) == sorted(expected)
        selections = sum(
            len(q.joins) - (_stored_first(q) is not None) for q in queries
        )
        assert len(probed) - len(stored) == selections

    def test_replays_are_counted(self, seed, profile):
        executor = SsbExecutor(_small_db(seed), profile)
        rec = CountersRecorder()
        replays = []
        for query in ALL_QUERIES:
            before = rec.counter("ssb.exec.probe_replays_count")
            executor.execute(query, recorder=rec)
            if rec.counter("ssb.exec.probe_replays_count") > before:
                replays.append(query.joins[0].table)
        assert rec.counter("ssb.exec.probe_replays_count") == 8
        assert sorted(replays) == ["customer"] * 6 + ["part"] * 2

    def test_replay_on_another_index_is_refused(self, seed, profile):
        db = _small_db(seed)
        executor = SsbExecutor(db, profile)
        query = get_query("Q2.1")
        executor.execute(query)
        join = query.joins[0]
        stranger = operators.build_dimension_index(
            db.table(join.table), join.dim_key, (), profile
        )
        with pytest.raises(QueryError, match="another index"):
            executor._stored_probe(join, stranger)


class TestOneDashIndexPerTable:
    def test_each_table_resolves_one_lookup_table(self, db, monkeypatch):
        resolved = []
        original = DashIndex._resolve

        def counting(index):
            resolved.append(index)
            return original(index)

        monkeypatch.setattr(DashIndex, "_resolve", counting)
        executor = SsbExecutor(db, HANDCRAFTED_PMEM)
        for query in ALL_QUERIES:
            executor.execute(query)
        tables = {table for table, _ in executor._index_cache}
        indexes = {id(built.index) for built in executor._index_cache.values()}
        assert len(tables) == len(indexes) == 4
        assert len(resolved) == len({id(index) for index in resolved}) == 4
