"""The paper's primary contribution: insights, best practices, advisor.

* :mod:`repro.core.insights` — the 12 numbered insights as falsifiable
  claims checked against the bandwidth model;
* :mod:`repro.core.best_practices` — the 7 best practices of §7;
* :mod:`repro.core.optimizer` — exhaustive configuration tuner;
* :mod:`repro.core.advisor` — workload-intent to configuration mapping.
"""

from importlib import import_module
from types import MappingProxyType
from typing import Any

#: Public name -> (submodule, attribute). Each submodule is imported on
#: first use (:pep:`562`), so a command that needs only the insights does
#: not load the advisor, the hybrid planner, the optimizer or the
#: sensitivity analysis.
_LAZY = MappingProxyType({
    "ALL_INSIGHTS": ("insights", "ALL_INSIGHTS"),
    "AccessProfile": ("advisor", "AccessProfile"),
    "BEST_PRACTICES": ("best_practices", "BEST_PRACTICES"),
    "BestPractice": ("best_practices", "BestPractice"),
    "HybridPlan": ("hybrid", "HybridPlan"),
    "HybridPlanner": ("hybrid", "HybridPlanner"),
    "Insight": ("insights", "Insight"),
    "Placement": ("hybrid", "Placement"),
    "Structure": ("hybrid", "Structure"),
    "StructureKind": ("hybrid", "StructureKind"),
    "PlacementAdvisor": ("advisor", "PlacementAdvisor"),
    "Recommendation": ("advisor", "Recommendation"),
    "SensitivityReport": ("sensitivity", "SensitivityReport"),
    "TuningCandidate": ("optimizer", "TuningCandidate"),
    "TuningResult": ("optimizer", "TuningResult"),
    "TuningSpace": ("optimizer", "TuningSpace"),
    "WorkloadIntent": ("advisor", "WorkloadIntent"),
    "get_insight": ("insights", "get_insight"),
    "get_practice": ("best_practices", "get_practice"),
    "practices_report": ("best_practices", "practices_report"),
    "sensitivity_analysis": ("sensitivity", "analyze"),
    "tune": ("optimizer", "tune"),
    "ssb_structures": ("hybrid", "ssb_structures"),
    "tuned_matches_best_practices": ("optimizer", "tuned_matches_best_practices"),
    "verify_all": ("insights", "verify_all"),
    "verify_practices": ("best_practices", "verify_practices"),
})

__all__ = [
    "ALL_INSIGHTS",
    "AccessProfile",
    "BEST_PRACTICES",
    "BestPractice",
    "HybridPlan",
    "HybridPlanner",
    "Insight",
    "Placement",
    "Structure",
    "StructureKind",
    "PlacementAdvisor",
    "Recommendation",
    "SensitivityReport",
    "TuningCandidate",
    "TuningResult",
    "TuningSpace",
    "WorkloadIntent",
    "get_insight",
    "get_practice",
    "practices_report",
    "sensitivity_analysis",
    "tune",
    "ssb_structures",
    "tuned_matches_best_practices",
    "verify_all",
    "verify_practices",
]


def __getattr__(name: str) -> Any:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attribute = _LAZY[name]
    return getattr(import_module(f"{__name__}.{module}"), attribute)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
