"""Section 7: the seven best practices, verified against the model.

The reproduction's headline deliverable: every numbered insight and every
best practice must *hold as a consequence of the modeled mechanisms*.
"""

from __future__ import annotations

from repro.core.best_practices import BEST_PRACTICES, verify_practices
from repro.core.insights import ALL_INSIGHTS, verify_all
from repro.experiments.result import ExperimentResult


def run() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="bestpractices",
        title="Best practices for OLAP on PMEM (§7)",
        unit="bool",
    )
    insight_results = verify_all()
    practice_results = verify_practices()
    result.add_series(
        "insights hold", {f"#{n}": float(ok) for n, ok in insight_results.items()}
    )
    result.add_series(
        "practices hold", {f"({n})": float(ok) for n, ok in practice_results.items()}
    )
    result.compare(
        "insights derivable from the model (12 of 12)",
        float(len(ALL_INSIGHTS)),
        float(sum(insight_results.values())),
        unit="count",
    )
    result.compare(
        "practices derivable from the model (7 of 7)",
        float(len(BEST_PRACTICES)),
        float(sum(practice_results.values())),
        unit="count",
    )
    for practice in BEST_PRACTICES:
        result.notes.append(f"({practice.number}) {practice.statement}")
    return result
