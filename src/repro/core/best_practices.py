"""The paper's seven best practices (§7), derived from the insights.

Each practice aggregates the insights it condenses and is verifiable
against the model through them. :func:`verify_practices` is the
reproduction of the paper's headline contribution: running it confirms
that all seven recommendations follow from the modeled mechanisms.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.insights import ALL_INSIGHTS, get_insight
from repro.memsim import DaxMode, MachineConfig, paper_config, read_stream
from repro.sweep import stream_gbps


@dataclass(frozen=True)
class BestPractice:
    """One of the seven best practices of paper §7."""

    number: int
    statement: str
    insight_numbers: tuple[int, ...]

    def insights(self):
        """The underlying insights this practice condenses."""
        return tuple(get_insight(n) for n in self.insight_numbers)

    def holds(self, config: MachineConfig) -> bool:
        """True when every underlying insight checks out on ``config``."""
        return all(insight.check(config) for insight in self.insights())


BEST_PRACTICES: tuple[BestPractice, ...] = (
    BestPractice(
        1,
        "Read and write to PMEM in distinct memory regions.",
        (1, 6),
    ),
    BestPractice(
        2,
        "Scale up the number of threads when reading but limit the "
        "threads to 4-6 per socket when writing.",
        (2, 7),
    ),
    BestPractice(
        3,
        "Pin threads (explicitly) within their NUMA regions for maximum "
        "bandwidth.",
        (3, 8),
    ),
    BestPractice(
        4,
        "Place data on all sockets but access it only from near NUMA "
        "regions.",
        (4, 5, 9, 10),
    ),
    BestPractice(
        5,
        "Avoid large mixed read-write workloads when possible.",
        (11,),
    ),
    BestPractice(
        6,
        "Access PMEM sequentially or use the largest possible access for "
        "random workloads.",
        (12,),
    ),
    BestPractice(
        7,
        "Use PMEM in devdax mode for maximum performance.",
        (),  # verified directly below, not via a numbered insight
    ),
)


def get_practice(number: int) -> BestPractice:
    """Look up a best practice by its paper number (1-7)."""
    for practice in BEST_PRACTICES:
        if practice.number == number:
            return practice
    raise KeyError(f"no best practice #{number}; the paper defines 1-7")


def _devdax_beats_fsdax(config: MachineConfig) -> bool:
    devdax = stream_gbps(config, (read_stream(18),))
    fsdax = stream_gbps(config, (read_stream(18, dax_mode=DaxMode.FSDAX),))
    return devdax > fsdax


def verify_practices(config: MachineConfig | None = None) -> dict[int, bool]:
    """Check all seven practices on ``config``; return {number: holds}.

    ``config`` defaults to :func:`~repro.memsim.paper_config`.
    """
    config = config if config is not None else paper_config()
    results: dict[int, bool] = {}
    for practice in BEST_PRACTICES:
        if practice.number == 7:
            results[7] = _devdax_beats_fsdax(config)
        else:
            results[practice.number] = practice.holds(config)
    return results


def practices_report(config: MachineConfig | None = None) -> str:
    """Render the practices with their verification status (examples)."""
    results = verify_practices(config)
    lines = ["Best practices for PMEM bandwidth in OLAP workloads (paper §7):"]
    for practice in BEST_PRACTICES:
        mark = "HOLDS" if results[practice.number] else "VIOLATED"
        lines.append(f"  ({practice.number}) [{mark}] {practice.statement}")
        if practice.insight_numbers:
            refs = ", ".join(f"#{n}" for n in practice.insight_numbers)
            lines.append(f"      derived from insights {refs}")
    covered = {n for p in BEST_PRACTICES for n in p.insight_numbers}
    missing = [i.number for i in ALL_INSIGHTS if i.number not in covered]
    if missing:
        lines.append(f"  (insights not condensed into a practice: {missing})")
    return "\n".join(lines)
