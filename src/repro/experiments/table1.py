"""Table 1: the optimization ladder of query Q2.1.

Five cumulative optimizations — 1 thread, 18 threads, both sockets,
NUMA-aware placement, explicit core pinning — on PMEM and DRAM, plus the
"traditional" NVMe-SSD deployment from the surrounding text.
"""

from __future__ import annotations

from repro.experiments import paperdata
from repro.experiments.result import ExperimentResult
from repro.ssb.runner import SsbRunner


def run(runner: SsbRunner | None = None) -> ExperimentResult:
    runner = runner if runner is not None else SsbRunner()
    result = ExperimentResult(
        exp_id="table1", title="Optimization of Q2.1 (seconds, sf 100)", unit="s"
    )
    ladder = runner.table1()
    result.add_series("pmem", {k: round(v, 2) for k, v in ladder["pmem"].items()})
    result.add_series("dram", {k: round(v, 2) for k, v in ladder["dram"].items()})

    for media, reference in (
        ("pmem", paperdata.TABLE1_PMEM),
        ("dram", paperdata.TABLE1_DRAM),
    ):
        for step, paper_seconds in reference.items():
            result.compare(
                f"Q2.1 {media} {step}",
                paper_seconds,
                ladder[media][step],
                unit="s",
            )

    ssd = runner.q21_on_ssd()
    result.add_series("ssd", {"Pinning": round(ssd, 2)})
    result.compare("Q2.1 on NVMe SSD (§6.2: 22.8 s)", paperdata.Q21_SSD_SECONDS, ssd, unit="s")
    result.compare(
        "SSD/PMEM ratio (§6.2: 2.6x)",
        paperdata.SSD_OVER_PMEM,
        ssd / ladder["pmem"]["Pinning"],
        unit="x",
    )
    return result
