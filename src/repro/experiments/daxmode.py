"""Section 2.3: devdax vs. fsdax.

devdax is consistently 5-10% faster (no page faults, no page-cache);
a pre-faulted fsdax mapping matches devdax exactly; a cold 2 MB page
fault costs ~0.5 ms, so pre-faulting 1 GB takes at least 0.25 s.
"""

from __future__ import annotations

from repro.experiments import paperdata
from repro.experiments.result import ExperimentResult
from repro.memsim import DaxMode, paper_config, read_stream
from repro.memsim.address import MappedRegion
from repro.sweep import stream_gbps
from repro.units import GIB


def run() -> ExperimentResult:
    config = paper_config()
    result = ExperimentResult(exp_id="daxmode", title="devdax vs fsdax (§2.3)")

    def series(**mode: object) -> dict[str, float]:
        return {
            str(t): stream_gbps(config, (read_stream(t, **mode),))
            for t in (4, 8, 18, 36)
        }

    devdax = series()
    fsdax = series(dax_mode=DaxMode.FSDAX)
    prefaulted = series(dax_mode=DaxMode.FSDAX, prefaulted=True)
    result.add_series("devdax", devdax)
    result.add_series("fsdax", fsdax)
    result.add_series("fsdax (prefaulted)", prefaulted)

    advantage = devdax["18"] / fsdax["18"] - 1.0
    low, high = paperdata.DEVDAX_ADVANTAGE_RANGE
    result.compare(
        "devdax advantage (§2.3: 5-10%)",
        (low + high) / 2,
        advantage,
        unit="frac",
    )
    result.compare(
        "prefaulted fsdax matches devdax",
        1.0,
        prefaulted["18"] / devdax["18"],
        unit="x",
    )
    region = MappedRegion(size=GIB, dax_mode=DaxMode.FSDAX)
    result.compare(
        "pre-faulting 1 GB (§2.3: >= 0.25 s)",
        paperdata.PAGE_FAULT_SECONDS_PER_GIB,
        region.fault_cost(config.calibration.pmem.page_fault_cost),
        unit="s",
    )
    return result
