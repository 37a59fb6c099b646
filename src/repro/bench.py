"""Bench-trajectory harness: ``repro bench``.

Runs the repo's ``benchmarks/bench_*`` suite (or a named subset) under
pytest-benchmark and distils the result into one canonical
``BENCH_<timestamp>.json`` per invocation. Committing these files over
time turns the benchmark suite into a *performance trajectory*: each
optimisation PR lands with a snapshot, and a regression shows up as a
kink in the series rather than an anecdote.

The payload (schema :data:`SCHEMA`) deliberately keeps only what the
trajectory needs — per-bench wall-time statistics, the sweep-cache
counters, the run configuration (smoke, warmup, rounds) and a host
fingerprint (:func:`host_fingerprint`) — instead of pytest-benchmark's
full machine dump, so snapshots diff cleanly and stay a few KB. Two
snapshots' timings compare only when their fingerprints match.

``--smoke`` pins a small fast subset (:data:`SMOKE_BENCHES`) with one
round and no warmup; it exists so a tier-1 test can exercise the whole
emit-and-validate path in seconds.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import tempfile
from pathlib import Path

from repro.errors import BenchError

#: Canonical payload schema identifier.
SCHEMA = "repro.bench/3"

#: The ``--smoke`` subset: fast benches covering the sweep service, the
#: cluster backend, the columnar result path, the serving layer, the
#: per-family vector kernel grids, and the SSB hash-index build and probe
#: this harness exists to track.
SMOKE_BENCHES = (
    "bench_sweep_service.py",
    "bench_cluster_sweep.py",
    "bench_columnar_results.py",
    "bench_serving.py",
    "bench_vector_families.py",
    "bench_hashindex.py",
)

#: Fields every per-bench entry must carry, with their types.
_BENCH_FIELDS: dict[str, type] = {
    "name": str,
    "file": str,
    "mean_seconds": float,
    "min_seconds": float,
    "max_seconds": float,
    "stddev_seconds": float,
    "rounds": int,
}


#: Fields of the ``host`` fingerprint, with their types.
_HOST_FIELDS: dict[str, type] = {
    "cpu_count": int,
    "machine": str,
    "python": str,
    "numpy": str,
}


def host_fingerprint() -> dict[str, object]:
    """What a snapshot's timings depend on besides the code: the core
    count (``0`` when the platform cannot tell), the machine type, and
    the Python and NumPy versions."""
    import numpy

    return {
        "cpu_count": os.cpu_count() or 0,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def bench_dir() -> Path:
    """The repo's ``benchmarks/`` directory (source checkouts only)."""
    root = Path(__file__).resolve().parents[2]
    found = root / "benchmarks"
    if not found.is_dir():
        raise BenchError(
            f"benchmarks directory not found at {found}; "
            "'repro bench' requires a source checkout"
        )
    return found


def resolve_selection(
    names: list[str] | None, *, smoke: bool = False, directory: Path | None = None
) -> list[Path]:
    """Map bench names (or the smoke set) to ``bench_*.py`` files.

    A name matches a file when it equals the filename, the stem, or a
    substring of the stem — ``fig03``, ``bench_fig03_read_access_size``
    and ``bench_fig03_read_access_size.py`` all select the same file.
    """
    root = directory if directory is not None else bench_dir()
    available = sorted(root.glob("bench_*.py"))
    if smoke:
        names = list(SMOKE_BENCHES)
    if not names:
        return available
    selected: list[Path] = []
    for name in names:
        matches = [
            path
            for path in available
            if name in (path.name, path.stem) or name in path.stem
        ]
        if not matches:
            raise BenchError(
                f"no benchmark matches {name!r}; available: "
                + ", ".join(path.stem for path in available)
            )
        for match in matches:
            if match not in selected:
                selected.append(match)
    return selected


def _utc_timestamp() -> str:
    """Current UTC time as a filesystem-safe ``YYYYmmddTHHMMSSZ`` stamp."""
    return datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%SZ")


def _distill(
    raw: dict[str, object],
    *,
    smoke: bool,
    warmup: bool,
    rounds: int,
    cache_stats: dict[str, int],
    created: str,
    host: dict[str, object],
) -> dict[str, object]:
    """Reduce a pytest-benchmark JSON dump to the canonical payload."""
    benches: list[dict[str, object]] = []
    for entry in raw.get("benchmarks", []):
        stats = entry["stats"]
        fullname = str(entry.get("fullname", entry["name"]))
        file_part = fullname.split("::", 1)[0]
        benches.append(
            {
                "name": str(entry["name"]),
                "file": Path(file_part).name,
                "mean_seconds": float(stats["mean"]),
                "min_seconds": float(stats["min"]),
                "max_seconds": float(stats["max"]),
                "stddev_seconds": float(stats["stddev"]),
                "rounds": int(stats["rounds"]),
                "extra": entry.get("extra_info", {}),
            }
        )
    benches.sort(key=lambda bench: (bench["file"], bench["name"]))
    return {
        "schema": SCHEMA,
        "created": created,
        "config": {
            "smoke": bool(smoke),
            "warmup": bool(warmup),
            "rounds": int(rounds),
        },
        "cache_stats": cache_stats,
        "host": host,
        "benchmarks": benches,
    }


def validate_payload(payload: dict[str, object]) -> None:
    """Raise :class:`BenchError` unless ``payload`` matches :data:`SCHEMA`."""

    def fail(reason: str) -> None:
        raise BenchError(f"invalid {SCHEMA} payload: {reason}")

    if not isinstance(payload, dict):
        fail("not a JSON object")
    if payload.get("schema") != SCHEMA:
        fail(f"schema is {payload.get('schema')!r}, expected {SCHEMA!r}")
    if not isinstance(payload.get("created"), str):
        fail("'created' must be a timestamp string")
    config = payload.get("config")
    if not isinstance(config, dict):
        fail("'config' must be an object")
    for key, kind in (("smoke", bool), ("warmup", bool), ("rounds", int)):
        if not isinstance(config.get(key), kind):
            fail(f"config[{key!r}] must be {kind.__name__}")
    stats = payload.get("cache_stats")
    if not isinstance(stats, dict):
        fail("'cache_stats' must be an object")
    for key in ("hits", "misses", "disk_hits"):
        if not isinstance(stats.get(key), int):
            fail(f"cache_stats[{key!r}] must be int")
    host = payload.get("host")
    if not isinstance(host, dict):
        fail("'host' must be an object")
    for key, kind in _HOST_FIELDS.items():
        value = host.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):
            fail(f"host[{key!r}] must be {kind.__name__}")
    if host["cpu_count"] < 0:
        fail("host['cpu_count'] must be >= 0")
    benches = payload.get("benchmarks")
    if not isinstance(benches, list) or not benches:
        fail("'benchmarks' must be a non-empty list")
    for entry in benches:
        if not isinstance(entry, dict):
            fail("benchmark entries must be objects")
        for key, kind in _BENCH_FIELDS.items():
            value = entry.get(key)
            # bool is an int subclass; rounds must be a real int.
            if not isinstance(value, kind) or isinstance(value, bool):
                fail(f"benchmark[{key!r}] must be {kind.__name__}")
        if entry["rounds"] < 1:
            fail("benchmark rounds must be >= 1")
        if entry["min_seconds"] < 0:
            fail("benchmark timings must be non-negative")


def run_benchmarks(
    names: list[str] | None = None,
    *,
    smoke: bool = False,
    warmup: bool = True,
    rounds: int = 3,
    directory: Path | None = None,
) -> dict[str, object]:
    """Run the selected benches; return the canonical payload.

    ``warmup``/``rounds`` control pytest-benchmark's repetition
    (``rounds`` maps to its minimum round count). The shared default
    service is swapped for a fresh one around the run so ``cache_stats``
    reflects this run alone.
    """
    import pytest

    from repro.sweep import EvaluationService, default_service, set_default_service

    selection = resolve_selection(names, smoke=smoke, directory=directory)
    if rounds < 1:
        raise BenchError(f"rounds must be >= 1, got {rounds}")
    if smoke:
        warmup = False
        rounds = 1
    created = _utc_timestamp()
    previous = set_default_service(EvaluationService())
    try:
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
            raw_path = Path(tmp) / "raw.json"
            argv = [
                *[str(path) for path in selection],
                "-q",
                "-p", "no:cacheprovider",
                "--override-ini", "addopts=",
                f"--benchmark-json={raw_path}",
                f"--benchmark-min-rounds={rounds}",
                f"--benchmark-warmup={'on' if warmup else 'off'}",
            ]
            code = pytest.main(argv)
            if code != 0:
                raise BenchError(
                    f"benchmark run failed (pytest exit code {int(code)})"
                )
            raw = json.loads(raw_path.read_text(encoding="utf-8"))
        service = default_service()
        cache_stats = {
            "hits": service.stats.hits,
            "misses": service.stats.misses,
            "disk_hits": service.stats.disk_hits,
        }
    finally:
        set_default_service(previous)
    payload = _distill(
        raw,
        smoke=smoke,
        warmup=warmup,
        rounds=rounds,
        cache_stats=cache_stats,
        created=created,
        host=host_fingerprint(),
    )
    validate_payload(payload)
    return payload


def write_payload(payload: dict[str, object], output: str | None = None) -> Path:
    """Write ``payload`` as pretty JSON; returns the path written.

    ``output`` may be a file path, a directory (gets the canonical
    ``BENCH_<timestamp>.json`` name inside it), or ``None`` for the
    canonical name in the current directory.
    """
    created = str(payload["created"])
    default_name = f"BENCH_{created}.json"
    if output is None:
        path = Path(default_name)
    else:
        path = Path(output)
        if path.is_dir():
            path = path / default_name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(payload_json(payload), encoding="utf-8")
    return path


def payload_json(payload: dict[str, object]) -> str:
    """``payload`` as a snapshot file holds it: pretty, key-sorted JSON."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
