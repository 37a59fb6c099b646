"""The whole-program layer: SIM201, SIM203 and SIM204 fixture projects,
the summary cache, and cross-module name resolution.

Each fixture under ``fixtures/program/<pass>/`` is a self-contained mini
project with its own ``pyproject.toml`` that enables exactly one
interprocedural contract, and contains a positive, a negative and a
suppressed case for it. Tests run with ``use_cache=False`` so they never
create a ``.simlint-cache/`` inside the repo's test tree.
"""

import json
import textwrap
from pathlib import Path

from repro.analysis.config import load_config
from repro.analysis.program import build_program, summarize_module
from repro.analysis.program.cache import SummaryCache, content_key
from repro.analysis.runner import run_analysis

PROGRAM_FIXTURES = Path(__file__).parent / "fixtures" / "program"


def run_fixture(name: str, select: list[str]):
    config = load_config(explicit=PROGRAM_FIXTURES / name / "pyproject.toml")
    return run_analysis(None, config, select=select, use_cache=False)


class TestPurityEscape:
    def test_cross_module_escape_is_found(self):
        report = run_fixture("purity", select=["SIM201"])
        (finding,) = report.findings
        assert finding.rule == "SIM201"
        assert finding.path == "proj/helpers.py"
        assert "proj.helpers.accumulate" in finding.message
        assert "'_CACHE'" in finding.message
        # The witness path names the root the escape is reachable from.
        assert "proj.core.evaluate" in finding.message

    def test_unreachable_writer_is_not_flagged(self):
        report = run_fixture("purity", select=["SIM201"])
        assert not any("unreachable_writer" in f.message for f in report.findings)

    def test_local_mutation_is_not_flagged(self):
        report = run_fixture("purity", select=["SIM201"])
        assert not any("pure_double" in f.message for f in report.findings)

    def test_inline_suppression_is_honoured(self):
        report = run_fixture("purity", select=["SIM201"])
        assert report.suppressed == 1
        assert not any("HISTORY" in f.message for f in report.findings)


class TestCounterDrift:
    def test_unknown_emit_name_is_found(self):
        report = run_fixture("counters", select=["SIM203"])
        unknown = [f for f in report.findings if "phantom" in f.message]
        (finding,) = unknown
        assert finding.path == "proj/emit.py"
        assert "matches no catalogue entry" in finding.message

    def test_dead_catalogue_entry_is_found(self):
        report = run_fixture("counters", select=["SIM203"])
        dead = [f for f in report.findings if "dead entry" in f.message]
        (finding,) = dead
        assert finding.path == "proj/catalog.py"
        assert "app.dead_bytes" in finding.message

    def test_fstring_emit_keeps_wildcard_entry_live(self):
        report = run_fixture("counters", select=["SIM203"])
        assert not any("app.*.part_count" in f.message for f in report.findings)

    def test_literal_emit_matching_catalogue_is_clean(self):
        report = run_fixture("counters", select=["SIM203"])
        assert not any("app.good_count" in f.message for f in report.findings)

    def test_inline_suppression_is_honoured(self):
        report = run_fixture("counters", select=["SIM203"])
        assert report.suppressed == 1
        assert not any("ghost" in f.message for f in report.findings)


class TestUnitFlow:
    def test_cross_module_mix_is_found(self):
        report = run_fixture("units", select=["SIM204"])
        (finding,) = report.findings
        assert finding.path == "proj/flow.py"
        assert "'ns'" in finding.message and "'gib'" in finding.message
        assert "proj.flow.mixed" in finding.message

    def test_consistent_scales_are_clean(self):
        report = run_fixture("units", select=["SIM204"])
        assert not any("consistent" in f.message for f in report.findings)

    def test_inline_suppression_is_honoured(self):
        report = run_fixture("units", select=["SIM204"])
        assert report.suppressed == 1
        assert not any("hushed" in f.message for f in report.findings)


def summarize(source: str, relpath: str = "proj/mod.py"):
    import ast

    return summarize_module(ast.parse(textwrap.dedent(source)), relpath)


class TestSummaryCache:
    SOURCE = "def f(x_ns, y_ns):\n    return x_ns + y_ns\n"

    def test_roundtrip(self, tmp_path):
        cache = SummaryCache(tmp_path / "cache")
        summary = summarize(self.SOURCE)
        cache.put(self.SOURCE, "proj/mod.py", summary)
        loaded = cache.get(self.SOURCE, "proj/mod.py")
        assert loaded is not None
        assert loaded.module == summary.module
        assert loaded == summary
        assert cache.hits == 1

    def test_key_is_salted_with_relpath(self):
        # Same bytes at a different path are a different module.
        assert content_key(self.SOURCE, "proj/a.py") != content_key(
            self.SOURCE, "proj/b.py"
        )

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = SummaryCache(tmp_path / "cache")
        cache.put(self.SOURCE, "proj/mod.py", summarize(self.SOURCE))
        (entry,) = (tmp_path / "cache" / "summaries").glob("*.json")
        entry.write_text("{not json")
        assert cache.get(self.SOURCE, "proj/mod.py") is None
        assert cache.misses == 1

    def test_version_mismatch_is_a_miss(self, tmp_path):
        cache = SummaryCache(tmp_path / "cache")
        cache.put(self.SOURCE, "proj/mod.py", summarize(self.SOURCE))
        (entry,) = (tmp_path / "cache" / "summaries").glob("*.json")
        data = json.loads(entry.read_text())
        data["version"] = -1
        entry.write_text(json.dumps(data))
        assert cache.get(self.SOURCE, "proj/mod.py") is None

    def test_build_program_cold_then_warm(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.simlint]\npaths = ['mod.py']\n"
        )
        (tmp_path / "mod.py").write_text(self.SOURCE)
        config = load_config(explicit=tmp_path / "pyproject.toml")
        cold = build_program([tmp_path / "mod.py"], config, use_cache=True)
        assert (cold.cache_hits, cold.cache_misses) == (0, 1)
        warm = build_program([tmp_path / "mod.py"], config, use_cache=True)
        assert (warm.cache_hits, warm.cache_misses) == (1, 0)

    def test_content_change_invalidates(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.simlint]\npaths = ['mod.py']\n"
        )
        (tmp_path / "mod.py").write_text(self.SOURCE)
        config = load_config(explicit=tmp_path / "pyproject.toml")
        build_program([tmp_path / "mod.py"], config, use_cache=True)
        (tmp_path / "mod.py").write_text(self.SOURCE + "\nz = 1\n")
        edited = build_program([tmp_path / "mod.py"], config, use_cache=True)
        assert (edited.cache_hits, edited.cache_misses) == (0, 1)


class TestGraphResolution:
    def test_import_alias_resolves_across_modules(self):
        config = load_config(explicit=PROGRAM_FIXTURES / "purity" / "pyproject.toml")
        program = build_program(
            [PROGRAM_FIXTURES / "purity" / "proj"], config, use_cache=False
        )
        caller = program.functions["proj.core.evaluate"]
        resolved = program.resolve_call(caller, "helpers.accumulate")
        assert resolved == "proj.helpers.accumulate"

    def test_reachability_carries_a_witness_path(self):
        config = load_config(explicit=PROGRAM_FIXTURES / "purity" / "pyproject.toml")
        program = build_program(
            [PROGRAM_FIXTURES / "purity" / "proj"], config, use_cache=False
        )
        reach = program.reachable_from(("proj.core.evaluate",))
        assert reach["proj.helpers.accumulate"] == (
            "proj.core.evaluate",
            "proj.helpers.accumulate",
        )
        assert "proj.core.unreachable_writer" not in reach
