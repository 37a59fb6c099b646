"""Figure 14: Star Schema Benchmark on PMEM vs. DRAM.

Panel (a): Hyrise (PMEM-unaware, sf 50) — average slowdown 5.3x.
Panel (b): the handcrafted PMEM-aware implementation (sf 100) — average
slowdown 1.66x, with QF1 finishing in ~1.3 s (PMEM) vs ~0.5 s (DRAM).
"""

from __future__ import annotations

from repro.experiments import paperdata
from repro.experiments.result import ExperimentResult
from repro.ssb.runner import SsbRunner, average_slowdown


def run(runner: SsbRunner | None = None) -> ExperimentResult:
    runner = runner if runner is not None else SsbRunner()
    result = ExperimentResult(
        exp_id="fig14", title="Star Schema Benchmark performance", unit="s"
    )

    hyrise = runner.figure14a()
    handcrafted = runner.figure14b()
    result.add_series("a-hyrise/pmem", {q: round(s, 3) for q, s in hyrise["pmem"].seconds.items()})
    result.add_series("a-hyrise/dram", {q: round(s, 3) for q, s in hyrise["dram"].seconds.items()})
    result.add_series("b-handcrafted/pmem", {q: round(s, 3) for q, s in handcrafted["pmem"].seconds.items()})
    result.add_series("b-handcrafted/dram", {q: round(s, 3) for q, s in handcrafted["dram"].seconds.items()})

    result.compare(
        "Hyrise average PMEM/DRAM slowdown (§6.1: 5.3x)",
        paperdata.HYRISE_AVG_SLOWDOWN,
        average_slowdown(hyrise["pmem"], hyrise["dram"]),
        unit="x",
    )
    result.compare(
        "handcrafted average slowdown (§6.2: 1.66x)",
        paperdata.HANDCRAFTED_AVG_SLOWDOWN,
        average_slowdown(handcrafted["pmem"], handcrafted["dram"]),
        unit="x",
    )
    result.compare(
        "QF1 per-query runtime on PMEM (§6.2: ~1.3 s)",
        paperdata.QF1_PMEM_SECONDS,
        handcrafted["pmem"].flight_seconds(1) / 3,
        unit="s",
    )
    result.compare(
        "QF1 per-query runtime on DRAM (§6.2: ~0.5 s)",
        paperdata.QF1_DRAM_SECONDS,
        handcrafted["dram"].flight_seconds(1) / 3,
        unit="s",
    )
    qf24_p = sum(handcrafted["pmem"].flight_seconds(f) for f in (2, 3, 4))
    qf24_d = sum(handcrafted["dram"].flight_seconds(f) for f in (2, 3, 4))
    result.compare(
        "QF2-4 average slowdown (§6.2: ~1.6x)",
        paperdata.QF2_4_SLOWDOWN,
        qf24_p / qf24_d,
        unit="x",
    )
    result.compare(
        "Q2.1 memory-bound fraction on PMEM (§6.2: >70%)",
        paperdata.MEMORY_BOUND_FRACTION,
        handcrafted["pmem"].breakdowns["Q2.1"].memory_bound_fraction,
        unit="frac",
    )
    result.notes.append(
        "unaware/aware slowdown ratio: "
        f"{average_slowdown(hyrise['pmem'], hyrise['dram']) / average_slowdown(handcrafted['pmem'], handcrafted['dram']):.1f}x "
        "(paper: 5.3/1.66 = 3.2x)"
    )
    return result
