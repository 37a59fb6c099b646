"""Figure 3: sequential read bandwidth vs. access size and thread count.

Grouped access (a): bandwidth depends strongly on the access size; 4 KB
is the global maximum, 1-2 KB dips (L2 prefetcher), sub-256 B accesses
keep too few DIMMs busy. Individual access (b): nearly size-independent,
close to the 40 GB/s peak for high thread counts.
"""

from __future__ import annotations

from repro.experiments import paperdata
from repro.experiments.common import curves_by, evaluate_grid
from repro.experiments.result import ExperimentResult
from repro.memsim import Layout, Op, paper_config
from repro.workloads import sequential_sweep


def run() -> ExperimentResult:
    config = paper_config()
    result = ExperimentResult(
        exp_id="fig3",
        title="Read bandwidth vs access size and thread count (grouped/individual)",
    )
    for layout, panel in ((Layout.GROUPED, "a-grouped"), (Layout.INDIVIDUAL, "b-individual")):
        grid = sequential_sweep(Op.READ, layout=layout)
        values = evaluate_grid(config, grid)
        for threads, curve in curves_by(values, grid, "threads", "access_size").items():
            result.add_series(f"{panel}/{threads}T", curve)

    grouped = result.series_values("a-grouped/36T")
    individual = result.series_values("b-individual/36T")
    result.compare(
        "grouped 4 KB peak, 36 threads (Fig. 3a)",
        paperdata.READ_PEAK_GBPS,
        grouped["4096"],
    )
    result.compare(
        "grouped 64 B minimum, 36 threads (§3.1)",
        paperdata.READ_GROUPED_36T_MIN_GBPS,
        grouped["64"],
    )
    result.compare(
        "individual reads at 4 KB, 18 threads (§3.2)",
        paperdata.READ_PEAK_GBPS,
        result.series_values("b-individual/18T")["4096"],
    )
    result.compare(
        "8-thread fraction of the peak (§3.2: ~85%)",
        paperdata.READ_8T_OF_PEAK,
        result.series_values("b-individual/8T")["4096"] / individual["4096"],
        unit="frac",
    )
    result.notes.append(
        "1-2 KB grouped dip present: "
        f"1 KB={grouped['1024']:.1f} vs 4 KB={grouped['4096']:.1f} GB/s"
    )
    return result
