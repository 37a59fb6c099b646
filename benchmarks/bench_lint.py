"""Benchmark: whole-program lint latency over the full repo.

The whole-program layer re-reads every module on every run — that is the
design (``--changed`` still needs the full call graph) — so its wall
time is the tax every pre-commit run pays. Two claims are tracked:

* **A full repo lint stays under 5 seconds.** Past that, linters get
  turned off; ``test_full_repo_lint_under_budget`` runs all file rules
  plus all three interprocedural passes over ``src`` against a wall-clock
  budget. The gate skips on < 4 core hosts, where CI containers are too
  noisy for a wall-clock assertion to mean anything.
* **The summary cache pays for itself.** A warm ``build_program`` must
  serve every summary from the content-hash store (asserted exactly via
  the hit/miss counters) and beat the cold parse by a useful margin.
"""

from __future__ import annotations

import os
import shutil
import timeit
from pathlib import Path

import pytest

from repro.analysis.config import load_config
from repro.analysis.program import build_program
from repro.analysis.runner import run_analysis

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Wall-clock budget for one full lint of the repo (seconds).
_LINT_BUDGET_S = 5.0


def _cores() -> int:
    return os.cpu_count() or 1


@pytest.fixture()
def repo_config():
    return load_config(explicit=REPO_ROOT / "pyproject.toml")


def test_full_repo_lint_under_budget(repo_config, tmp_path, monkeypatch):
    """File rules + whole-program passes over src/ in < 5 s, cold cache."""
    cores = _cores()
    if cores < 4:
        pytest.skip(
            f"needs >= 4 CPU cores for a stable wall-clock gate "
            f"(have {cores}); shared small hosts are too noisy"
        )
    elapsed = timeit.default_timer()
    report = run_analysis(None, repo_config, use_cache=False)
    elapsed = timeit.default_timer() - elapsed
    assert report.files > 0
    assert not report.findings, [f.message for f in report.findings]
    assert elapsed < _LINT_BUDGET_S, (
        f"full-repo lint took {elapsed:.2f}s (budget {_LINT_BUDGET_S}s)"
    )


def test_program_build_cold_vs_warm(repo_config, benchmark):
    """A warm build serves every summary from the cache and is faster."""
    paths = [repo_config.root / p for p in repo_config.paths]
    cache_dir = repo_config.root / ".simlint-cache"
    shutil.rmtree(cache_dir, ignore_errors=True)

    cold_start = timeit.default_timer()
    cold = build_program(paths, repo_config, use_cache=True)
    cold_s = timeit.default_timer() - cold_start
    assert cold.cache_hits == 0 and cold.cache_misses > 0

    warm = benchmark(lambda: build_program(paths, repo_config, use_cache=True))
    assert warm.cache_misses == 0
    assert warm.cache_hits == cold.cache_misses
    if _cores() >= 4:
        warm_s = timeit.timeit(
            lambda: build_program(paths, repo_config, use_cache=True), number=1
        )
        assert warm_s < cold_s, (
            f"warm build ({warm_s:.3f}s) should beat cold parse ({cold_s:.3f}s)"
        )
