#!/usr/bin/env python3
"""Use the placement advisor to configure three OLAP deployments.

The advisor is the actionable form of the paper's best practices: a
system designer describes the workload, the advisor returns thread
counts, access sizes, pinning, placement, and dax mode — each choice
annotated with the best practice it derives from, and with bandwidths
predicted by the model rather than promised by a rule of thumb.

Run:  python examples/placement_advisor.py
"""

from repro import PlacementAdvisor, WorkloadIntent
from repro.core import AccessProfile


def main() -> None:
    advisor = PlacementAdvisor()

    scenarios = [
        (
            "Interactive dashboard farm (scan-heavy, full control)",
            WorkloadIntent(profile=AccessProfile.SCAN_HEAVY),
        ),
        (
            "Ad-hoc analytics on a shared box (join-heavy, no pinning rights, "
            "needs a filesystem)",
            WorkloadIntent(
                profile=AccessProfile.JOIN_HEAVY,
                full_system_control=False,
                needs_filesystem=True,
            ),
        ),
        (
            "Always-on ingestion plus reporting (mixed, small appends)",
            WorkloadIntent(
                profile=AccessProfile.MIXED,
                min_write_granularity=64,
            ),
        ),
    ]

    for title, intent in scenarios:
        print("=" * 72)
        print(title)
        print("-" * 72)
        recommendation = advisor.recommend(intent)
        print(recommendation.describe())
        print()


if __name__ == "__main__":
    main()
