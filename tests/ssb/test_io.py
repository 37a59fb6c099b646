"""Tests for database persistence and import estimation."""

import re

import numpy as np
import pytest

from repro.errors import ConfigurationError, SchemaError
from repro.memsim import MediaKind
from repro.ssb.dbgen import generate
from repro.ssb.io import (
    estimate_import,
    import_advice,
    load_database,
    save_database,
)
from repro.units import GB


@pytest.fixture(scope="module")
def db():
    return generate(scale_factor=0.01, seed=4)


class TestPersistence:
    def test_round_trip(self, db, tmp_path):
        path = save_database(db, tmp_path / "ssb.npz")
        loaded = load_database(path)
        assert loaded.scale_factor == db.scale_factor
        for name in ("lineorder", "date", "customer", "supplier", "part"):
            original = db.table(name)
            restored = loaded.table(name)
            assert restored.n_rows == original.n_rows
            for column in original.spec.column_names():
                assert np.array_equal(restored[column], original[column])

    def test_loaded_database_answers_queries_identically(self, db, tmp_path):
        from repro.ssb.engine import SsbExecutor
        from repro.ssb.queries import get_query
        from repro.ssb.storage import HANDCRAFTED_PMEM

        path = save_database(db, tmp_path / "ssb.npz")
        loaded = load_database(path)
        query = get_query("Q2.1")
        a = SsbExecutor(db, HANDCRAFTED_PMEM).execute(query)
        b = SsbExecutor(loaded, HANDCRAFTED_PMEM).execute(query)
        assert a.groups == b.groups

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_database(tmp_path / "nope.npz")

    def test_non_ssb_archive_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez_compressed(path, something=np.arange(3))
        with pytest.raises(SchemaError):
            load_database(path)

    @pytest.mark.parametrize("damage", ["not-a-zip", "truncated", "empty-scale-factor"])
    def test_unreadable_archive_is_a_schema_error(self, db, tmp_path, damage):
        path = tmp_path / "bad.npz"
        if damage == "not-a-zip":
            path.write_bytes(b"not an archive\n" * 8)
        elif damage == "truncated":
            data = save_database(db, path).read_bytes()
            path.write_bytes(data[: len(data) // 2])
        else:
            np.savez(path, __scale_factor__=np.zeros(0))
        with pytest.raises(SchemaError, match=re.escape(str(path))):
            load_database(path)

    def test_suffix_normalisation(self, db, tmp_path):
        path = save_database(db, tmp_path / "archive")
        assert path.suffix == ".npz"
        assert path.exists()


class TestImportEstimation:
    def test_best_practice_rate(self):
        # 6 threads x 4 KB on both sockets: ~2 x 13.2 GB/s.
        estimate = estimate_import(70 * GB)
        assert estimate.gbps == pytest.approx(26.4, rel=0.05)
        assert estimate.seconds == pytest.approx(70 / 26.4, rel=0.05)

    def test_naive_configuration_is_slower(self):
        tuned = estimate_import(70 * GB, threads=6, access_size=4096)
        naive = estimate_import(70 * GB, threads=36, access_size=1 << 20)
        assert naive.seconds > 2 * tuned.seconds

    def test_dram_ingest_faster(self):
        pmem = estimate_import(70 * GB)
        dram = estimate_import(70 * GB, media=MediaKind.DRAM, threads=18)
        assert dram.seconds < pmem.seconds

    def test_single_socket_halves_rate(self):
        both = estimate_import(70 * GB, sockets=2)
        one = estimate_import(70 * GB, sockets=1)
        assert both.gbps == pytest.approx(2 * one.gbps)

    def test_invalid_volume(self):
        with pytest.raises(ConfigurationError):
            estimate_import(0)

    def test_invalid_sockets(self):
        with pytest.raises(ConfigurationError):
            estimate_import(GB, sockets=3)

    def test_advice_text(self):
        text = import_advice(70 * GB)
        assert "best practice" in text
        assert "x faster" in text
