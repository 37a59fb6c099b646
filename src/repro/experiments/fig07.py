"""Figure 7: sequential write bandwidth vs. access size and thread count.

Grouped 4 KB access is the global maximum (12.6 GB/s); 256 B forms a
secondary peak for 18+ threads; high thread counts collapse to 5-6 GB/s
beyond it; 64 B grouped writes (2.6 GB/s) trail individual ones
(9.6 GB/s) by ~4x.
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
        exp_id="fig7",
        title="Write bandwidth vs access size and thread count (grouped/individual)",
    )
    for layout, panel in ((Layout.GROUPED, "a-grouped"), (Layout.INDIVIDUAL, "b-individual")):
        grid = sequential_sweep(Op.WRITE, layout=layout)
        values = evaluate_grid(config, grid)
        for threads, curve in curves_by(values, grid, "threads", "access_size").items():
            result.add_series(f"{panel}/{threads}T", curve)

    grouped_4 = result.series_values("a-grouped/4T")
    grouped_36 = result.series_values("a-grouped/36T")
    individual_36 = result.series_values("b-individual/36T")
    result.compare(
        "global maximum, grouped 4 KB (§4.1: 12.6 GB/s)",
        paperdata.WRITE_PEAK_GBPS,
        max(max(s.values()) for n, s in result.series.items()),
    )
    result.compare(
        "grouped 64 B, 36 threads (§4.1: 2.6 GB/s)",
        paperdata.WRITE_GROUPED_64B_36T_GBPS,
        grouped_36["64"],
    )
    result.compare(
        "individual 64 B, 36 threads (§4.1: 9.6 GB/s)",
        paperdata.WRITE_INDIVIDUAL_64B_36T_GBPS,
        individual_36["64"],
    )
    result.compare(
        "256 B secondary peak, 36 threads (§4.2: ~10 GB/s)",
        paperdata.WRITE_256B_HIGH_THREADS_GBPS,
        individual_36["256"],
    )
    result.compare(
        "large-access plateau, 36 threads (§4.2: ~5-6 GB/s)",
        paperdata.WRITE_HIGH_THREADS_PLATEAU_GBPS,
        grouped_36["65536"],
    )
    result.notes.append(
        "counterintuitive law holds: higher thread count -> smaller "
        "optimal access size"
    )
    return result
