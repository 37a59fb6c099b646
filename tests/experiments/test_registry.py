"""Tests for the experiment registry and result containers."""

import dis
import inspect

import pytest

from repro.errors import ExperimentError
from repro.experiments.registry import (
    REGISTRY,
    all_experiment_ids,
    get_experiment,
    run_experiment,
)
from repro.experiments.result import ExperimentResult, MetricComparison


class TestRegistry:
    def test_covers_every_paper_artifact(self):
        # Figures 3-14, Table 1, best practices, and the dax-mode study.
        expected = {f"fig{i}" for i in range(3, 15)} | {
            "table1",
            "bestpractices",
            "daxmode",
        }
        assert set(all_experiment_ids()) == expected

    def test_lookup(self):
        assert get_experiment("fig7").paper_section.startswith("4")

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            get_experiment("fig99")

    def test_ids_match_registry_keys(self):
        for exp_id, experiment in REGISTRY.items():
            assert experiment.exp_id == exp_id

    def test_runners_declare_only_parameters_they_use(self):
        # A declared-but-ignored knob (the retired jobs/backend pair was
        # one on seven experiments) silently runs the default instead.
        declared = {
            exp_id: list(inspect.signature(experiment.runner).parameters)
            for exp_id, experiment in REGISTRY.items()
        }
        assert {exp_id: names for exp_id, names in declared.items() if names} == {
            "fig14": ["runner"],
            "table1": ["runner"],
        }
        for exp_id, names in declared.items():
            code = REGISTRY[exp_id].runner.__code__
            read = {
                instruction.argval
                for instruction in dis.get_instructions(code)
                if instruction.opname.startswith("LOAD_FAST")
            }
            assert set(names) <= read, exp_id


class TestResultContainer:
    def test_duplicate_series_rejected(self):
        result = ExperimentResult(exp_id="x", title="t")
        result.add_series("a", {"1": 1.0})
        with pytest.raises(ExperimentError):
            result.add_series("a", {"1": 2.0})

    def test_missing_series(self):
        result = ExperimentResult(exp_id="x", title="t")
        with pytest.raises(ExperimentError):
            result.series_values("nope")

    def test_comparison_ratio(self):
        comparison = MetricComparison(metric="m", paper=10.0, measured=12.0)
        assert comparison.ratio == pytest.approx(1.2)

    def test_comparison_zero_paper_value(self):
        comparison = MetricComparison(metric="m", paper=0.0, measured=1.0)
        with pytest.raises(ExperimentError):
            _ = comparison.ratio

    def test_render_contains_series_and_comparisons(self):
        result = ExperimentResult(exp_id="x", title="demo")
        result.add_series("s", {"a": 1.0, "b": 2.0})
        result.compare("metric", 2.0, 2.2)
        text = result.render()
        assert "demo" in text
        assert "metric" in text
        assert "1.10x" in text

    def test_worst_ratio_error(self):
        result = ExperimentResult(exp_id="x", title="t")
        result.compare("good", 10.0, 10.0)
        result.compare("off", 10.0, 20.0)
        import math

        assert result.worst_ratio_error == pytest.approx(math.log(2.0))


class TestRunExperimentSmoke:
    def test_run_by_id(self):
        result = run_experiment("fig4")
        assert result.exp_id == "fig4"
        assert result.series
        assert result.comparisons
