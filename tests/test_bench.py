"""Bench harness: selection, schema validation, and the smoke run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import (
    SCHEMA,
    SMOKE_BENCHES,
    bench_dir,
    host_fingerprint,
    resolve_selection,
    validate_payload,
    write_payload,
)
from repro.errors import BenchError


def minimal_payload() -> dict:
    return {
        "schema": SCHEMA,
        "created": "20260807T000000Z",
        "config": {"smoke": True, "warmup": False, "rounds": 1},
        "cache_stats": {"hits": 0, "misses": 3, "disk_hits": 0},
        "host": {"cpu_count": 2, "machine": "x86_64", "python": "3.11.7", "numpy": "2.4.6"},
        "benchmarks": [
            {
                "name": "test_sweep_cold",
                "file": "bench_sweep_service.py",
                "mean_seconds": 0.01,
                "min_seconds": 0.009,
                "max_seconds": 0.012,
                "stddev_seconds": 0.001,
                "rounds": 3,
                "extra": {},
            }
        ],
    }


class TestSelection:
    def test_smoke_set_resolves(self):
        selected = resolve_selection(None, smoke=True)
        assert [path.name for path in selected] == list(SMOKE_BENCHES)

    def test_substring_and_stem_match_same_file(self):
        by_sub = resolve_selection(["hashindex"])
        by_stem = resolve_selection(["bench_hashindex"])
        by_name = resolve_selection(["bench_hashindex.py"])
        assert by_sub == by_stem == by_name
        assert [path.name for path in by_sub] == ["bench_hashindex.py"]

    def test_no_names_selects_whole_suite(self):
        everything = resolve_selection(None)
        assert len(everything) == len(list(bench_dir().glob("bench_*.py")))

    def test_unknown_name_lists_available(self):
        with pytest.raises(BenchError, match="no benchmark matches 'nope'"):
            resolve_selection(["nope"])


class TestSchema:
    def test_minimal_payload_is_valid(self):
        validate_payload(minimal_payload())

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda p: p.pop("schema"), "schema is None"),
            (lambda p: p.update(schema="repro.bench/0"), "schema is"),
            (lambda p: p.update(created=123), "'created'"),
            (lambda p: p["config"].pop("smoke"), "config\\['smoke'\\]"),
            (lambda p: p["config"].update(rounds="three"), "config\\['rounds'\\]"),
            (lambda p: p["cache_stats"].pop("disk_hits"), "disk_hits"),
            (lambda p: p.update(benchmarks=[]), "non-empty"),
            (lambda p: p["benchmarks"][0].pop("mean_seconds"), "mean_seconds"),
            (lambda p: p["benchmarks"][0].update(rounds=0), ">= 1"),
            (lambda p: p["benchmarks"][0].update(min_seconds=-1.0), "non-negative"),
            (lambda p: p.pop("host"), "'host' must be an object"),
            (lambda p: p["host"].pop("numpy"), "host\\['numpy'\\]"),
            (lambda p: p["host"].update(cpu_count=True), "host\\['cpu_count'\\] must be int"),
            (lambda p: p["host"].update(cpu_count=-1), ">= 0"),
        ],
    )
    def test_broken_payloads_rejected(self, mutate, match):
        payload = minimal_payload()
        mutate(payload)
        with pytest.raises(BenchError, match=match):
            validate_payload(payload)

    def test_version_1_payload_rejected(self):
        # Schema 2 dropped the dead jobs/backend run knobs.
        payload = minimal_payload()
        payload["schema"] = "repro.bench/1"
        payload["config"].update(jobs=1, backend="thread")
        with pytest.raises(BenchError, match="expected 'repro.bench/3'"):
            validate_payload(payload)

    def test_version_2_payload_rejected(self):
        # Schema 3 added the host fingerprint.
        payload = minimal_payload()
        payload["schema"] = "repro.bench/2"
        del payload["host"]
        with pytest.raises(BenchError, match="expected 'repro.bench/3'"):
            validate_payload(payload)

    def test_host_fingerprint_is_valid(self):
        payload = minimal_payload()
        payload["host"] = host_fingerprint()
        validate_payload(payload)
        assert payload["host"]["cpu_count"] == (os.cpu_count() or 0)

    def test_write_payload_uses_canonical_name(self, tmp_path):
        payload = minimal_payload()
        path = write_payload(payload, tmp_path)
        assert path.name == "BENCH_20260807T000000Z.json"
        assert json.loads(path.read_text()) == payload


class TestSmokeRun:
    def test_repro_bench_smoke_emits_valid_snapshot(self, tmp_path):
        """End-to-end: ``repro bench --smoke`` writes a schema-valid file."""
        out = tmp_path / "snap.json"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "bench", "--smoke", "-o", str(out)],
            capture_output=True, text=True, timeout=570, env=env,
            cwd=Path(__file__).resolve().parents[1],
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(out.read_text(encoding="utf-8"))
        validate_payload(payload)
        assert payload["config"]["smoke"] is True
        assert payload["config"]["rounds"] == 1
        assert payload["host"] == host_fingerprint()
        files = {bench["file"] for bench in payload["benchmarks"]}
        assert files <= set(SMOKE_BENCHES)
        assert "bench_sweep_service.py" in files
