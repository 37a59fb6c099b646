"""Config loading, suppression parsing, baseline round-trips, registry."""

import json

import pytest

from repro.analysis import (
    Baseline,
    Finding,
    SimlintConfig,
    all_rules,
    checker_for,
    load_config,
    run_analysis,
)
from repro.analysis.suppressions import Suppressions
from repro.errors import AnalysisError, ReproError


def make_finding(path="src/x.py", line=3, rule="SIM107", snippet="a == 0.0"):
    return Finding(path=path, line=line, col=1, rule=rule,
                   name="float-equality", message="m", snippet=snippet)


class TestConfig:
    def test_defaults_without_pyproject(self, tmp_path):
        config = load_config(start=tmp_path)
        assert config.paths == ("src",)
        assert config.baseline is None

    def test_loads_block_with_dashed_keys(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.simlint]\n"
            'paths = ["lib"]\n'
            'determinism-paths = ["lib/sim"]\n'
            'baseline = "base.json"\n'
        )
        config = load_config(start=tmp_path)
        assert config.paths == ("lib",)
        assert config.determinism_paths == ("lib/sim",)
        assert config.baseline_path() == tmp_path / "base.json"

    def test_unknown_key_rejected(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[tool.simlint]\ntypo = 1\n")
        with pytest.raises(AnalysisError, match="unknown"):
            load_config(start=tmp_path)

    def test_non_list_value_rejected(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[tool.simlint]\npaths = 'src'\n")
        with pytest.raises(AnalysisError, match="list of strings"):
            load_config(start=tmp_path)

    def test_discovered_upward(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[tool.simlint]\npaths = ['a']\n")
        nested = tmp_path / "deep" / "deeper"
        nested.mkdir(parents=True)
        config = load_config(start=nested)
        assert config.root == tmp_path
        assert config.paths == ("a",)

    def test_analysis_error_is_repro_error(self):
        assert issubclass(AnalysisError, ReproError)


class TestSuppressions:
    def test_bare_ignore_silences_all_rules(self):
        supp = Suppressions.scan("x = 1  # simlint: ignore\n")
        rules = {r.code: r for r in all_rules()}
        assert supp.suppresses(make_finding(line=1), rules)

    def test_listed_rule_matches_name_or_code(self):
        source = (
            "a = 1  # simlint: ignore[float-equality]\n"
            "b = 2  # simlint: ignore[SIM107]\n"
            "c = 3  # simlint: ignore[unit-literal]\n"
        )
        supp = Suppressions.scan(source)
        rules = {r.code: r for r in all_rules()}
        assert supp.suppresses(make_finding(line=1), rules)
        assert supp.suppresses(make_finding(line=2), rules)
        assert not supp.suppresses(make_finding(line=3), rules)  # other rule

    def test_unrelated_lines_untouched(self):
        supp = Suppressions.scan("x = 1  # simlint: ignore\ny = 2\n")
        rules = {r.code: r for r in all_rules()}
        assert not supp.suppresses(make_finding(line=2), rules)


class TestBaseline:
    def test_round_trip(self, tmp_path):
        baseline = Baseline.from_findings([make_finding()], reason="legacy")
        path = tmp_path / "base.json"
        baseline.save(path)
        loaded = Baseline.load(path)
        assert loaded.entries == baseline.entries
        assert loaded.entries[0]["reason"] == "legacy"

    def test_split_matches_ignoring_line_numbers(self):
        baseline = Baseline.from_findings([make_finding(line=3)], reason="r")
        new, accepted = baseline.split([make_finding(line=99)])
        assert new == [] and len(accepted) == 1

    def test_split_is_count_aware(self):
        baseline = Baseline.from_findings([make_finding()], reason="r")
        duplicate = [make_finding(line=3), make_finding(line=8)]
        new, accepted = baseline.split(duplicate)
        assert len(new) == 1 and len(accepted) == 1

    def test_stale_entries_detected(self):
        baseline = Baseline.from_findings(
            [make_finding(), make_finding(path="src/gone.py")], reason="r"
        )
        stale = baseline.stale_entries([make_finding()])
        assert [e["path"] for e in stale] == ["src/gone.py"]

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text("not json")
        with pytest.raises(AnalysisError, match="not valid JSON"):
            Baseline.load(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(AnalysisError, match="version"):
            Baseline.load(path)


class TestRegistry:
    def test_all_rules_are_registered(self):
        codes = {r.code for r in all_rules()}
        assert codes == {
            "SIM001", "SIM002", "SIM101", "SIM102", "SIM103", "SIM104",
            "SIM105", "SIM106", "SIM107", "SIM108", "SIM109", "SIM110",
            "SIM201", "SIM203", "SIM204", "SIM301", "SIM302",
            "SIM303", "SIM401",
        }

    def test_lookup_by_name_and_code(self):
        assert checker_for("float-equality")[0].code == "SIM107"
        assert checker_for("SIM107")[0].name == "float-equality"

    def test_unknown_rule_rejected(self):
        with pytest.raises(AnalysisError, match="unknown rule"):
            checker_for("SIM999")


class TestRunAnalysis:
    def test_select_and_disable(self, tmp_path):
        (tmp_path / "bad.py").write_text("x = 2 * 1024**3\ny = 1.0 == 1.0\n")
        config = SimlintConfig(root=tmp_path, paths=("bad.py",))
        only_units = run_analysis(config=config, select=["unit-literal"])
        assert {f.rule for f in only_units.findings} == {"SIM001"}
        without_units = run_analysis(config=config, disable=["unit-literal"])
        assert {f.rule for f in without_units.findings} == {"SIM107"}

    def test_missing_path_raises(self, tmp_path):
        config = SimlintConfig(root=tmp_path, paths=("nowhere",))
        with pytest.raises(AnalysisError, match="no such file"):
            run_analysis(config=config)

    def test_baseline_applied(self, tmp_path):
        (tmp_path / "bad.py").write_text("x = 1.0 == 1.0\n")
        config = SimlintConfig(root=tmp_path, paths=("bad.py",),
                               baseline="base.json")
        dirty = run_analysis(config=config)
        assert dirty.exit_code == 1
        Baseline.from_findings(dirty.findings, reason="legacy").save(
            tmp_path / "base.json"
        )
        clean = run_analysis(config=config)
        assert clean.exit_code == 0
        assert len(clean.baselined) == 1
