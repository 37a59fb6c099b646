"""Tier-1 gate: the tree must be simlint-clean.

Runs the analyzer in-process over the repo's own ``[tool.simlint]``
configuration. Any new finding fails here — fix it, suppress it on the
line with a justification, or (exceptionally) baseline it with a reason
in ``simlint-baseline.json``.
"""

from pathlib import Path

from repro.analysis import load_config, run_analysis

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_repo_analysis():
    config = load_config(start=REPO_ROOT)
    assert config.root == REPO_ROOT, "expected the repo's own pyproject.toml"
    return run_analysis(config=config)


def test_tree_has_no_new_findings():
    report = run_repo_analysis()
    assert report.findings == [], "new simlint findings:\n" + "\n".join(
        f.render() for f in report.findings
    )


def test_baseline_has_no_stale_entries():
    report = run_repo_analysis()
    assert report.stale_baseline == [], (
        "baseline entries whose findings were fixed; remove them from "
        f"simlint-baseline.json: {report.stale_baseline}"
    )


def test_obs_package_is_lint_clean():
    """The observability package must hold itself to the catalogue rule."""
    config = load_config(start=REPO_ROOT)
    report = run_analysis(paths=[REPO_ROOT / "src" / "repro" / "obs"], config=config)
    assert report.findings == [], "\n".join(f.render() for f in report.findings)


def test_whole_program_contracts_hold():
    """The three interprocedural contracts, run repo-wide.

    SIM201: nothing reachable from the evaluation roots mutates shared
    state. SIM203: emitted counter names and the catalogue round-trip
    with no drift in either direction. SIM204: no mixed-scale unit
    arithmetic flows across a function boundary.
    """
    config = load_config(start=REPO_ROOT)
    report = run_analysis(config=config, select=["SIM201", "SIM203", "SIM204"])
    assert report.findings == [], "\n".join(f.render() for f in report.findings)


def test_counter_name_rule_is_registered():
    from repro.analysis.registry import all_rules

    codes = {rule.code for rule in all_rules()}
    assert "SIM104" in codes


def test_every_baseline_entry_has_a_reason():
    from repro.analysis import Baseline

    baseline = Baseline.load(REPO_ROOT / "simlint-baseline.json")
    for entry in baseline.entries:
        assert entry.get("reason", "").strip(), f"entry without reason: {entry}"
