"""Figure 13: random write bandwidth, PMEM vs. DRAM.

PMEM random writes peak with 4-6 threads at ~2/3 of the sequential
maximum and improve with larger accesses; DRAM keeps scaling with
threads and is nearly size-insensitive.
"""

from __future__ import annotations

from repro.experiments import paperdata
from repro.experiments.common import curves_by, evaluate_grid
from repro.experiments.result import ExperimentResult
from repro.memsim import MediaKind, Op, paper_config, write_stream
from repro.sweep import stream_gbps
from repro.workloads import random_sweep


def run() -> ExperimentResult:
    config = paper_config()
    result = ExperimentResult(exp_id="fig13", title="Random write bandwidth (PMEM/DRAM)")
    for media, panel in ((MediaKind.PMEM, "a-pmem"), (MediaKind.DRAM, "b-dram")):
        grid = random_sweep(Op.WRITE, media=media)
        values = evaluate_grid(config, grid)
        for threads, curve in curves_by(values, grid, "threads", "access_size").items():
            result.add_series(f"{panel}/{threads}T", curve)

    peaks_by_threads = {
        int(name.split("/")[1].rstrip("T")): max(series.values())
        for name, series in result.series.items()
        if name.startswith("a-pmem/")
    }
    best_threads = max(peaks_by_threads, key=peaks_by_threads.get)
    result.compare(
        "PMEM random-write optimal thread count (§5.2: 4-6)",
        5.0,
        float(best_threads),
        unit="thr",
    )
    seq_peak = max(stream_gbps(config, (write_stream(t),)) for t in (4, 6))
    result.compare(
        "PMEM random-write peak fraction of sequential (§5.2: ~2/3)",
        paperdata.RANDOM_PEAK_FRACTION_PMEM,
        peaks_by_threads[best_threads] / seq_peak,
        unit="frac",
    )
    dram_36 = result.series_values("b-dram/36T")
    dram_1 = result.series_values("b-dram/1T")
    result.compare(
        "DRAM random writes scale with threads (36T/1T)",
        5.0,
        max(dram_36.values()) / max(dram_1.values()),
        unit="x",
    )
    result.notes.append(
        "larger access sizes improve PMEM random writes; DRAM is nearly "
        "size-insensitive beyond ~1 KB"
    )
    return result
