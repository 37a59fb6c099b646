"""Figure 12: random read bandwidth, PMEM vs. DRAM.

Random PMEM reads top out at ~2/3 of the sequential maximum and keep
profiting from more threads (hyperthreads included). DRAM's random
bandwidth depends on the allocation size: the paper's 2 GB hash region
lives on one NUMA node and reaches only half the channels.
"""

from __future__ import annotations

from repro.experiments import paperdata
from repro.experiments.common import curves_by, evaluate_grid
from repro.experiments.result import ExperimentResult
from repro.memsim import MediaKind, Op, Pattern, paper_config, read_stream
from repro.sweep import stream_gbps
from repro.units import GIB
from repro.workloads import random_sweep
from repro.workloads.random_ import DEFAULT_REGION


def run() -> ExperimentResult:
    config = paper_config()
    result = ExperimentResult(exp_id="fig12", title="Random read bandwidth (PMEM/DRAM)")
    for media, panel in ((MediaKind.PMEM, "a-pmem"), (MediaKind.DRAM, "b-dram")):
        grid = random_sweep(Op.READ, media=media)
        values = evaluate_grid(config, grid)
        for threads, curve in curves_by(values, grid, "threads", "access_size").items():
            result.add_series(f"{panel}/{threads}T", curve)

    pmem_peak = max(result.series_values("a-pmem/36T").values())
    seq_peak = stream_gbps(config, (read_stream(18),))
    result.compare(
        "PMEM random peak fraction of sequential (§5.2: ~2/3)",
        paperdata.RANDOM_PEAK_FRACTION_PMEM,
        pmem_peak / seq_peak,
        unit="frac",
    )
    dram_small = max(result.series_values("b-dram/36T").values())
    dram_seq = stream_gbps(config, (read_stream(18, media=MediaKind.DRAM),))
    result.compare(
        "DRAM random fraction on the 2 GB region (§5.2: ~50%)",
        paperdata.RANDOM_PEAK_FRACTION_DRAM_SMALL,
        dram_small / dram_seq,
        unit="frac",
    )
    def random_read(size: int, **where: object) -> float:
        spec = read_stream(36, access_size=size, pattern=Pattern.RANDOM, **where)
        return stream_gbps(config, (spec,))

    dram_large = random_read(8192, media=MediaKind.DRAM, region_bytes=90 * GIB)
    result.compare(
        "DRAM random fraction on a 90 GB region (§5.2: ~90%)",
        paperdata.RANDOM_LARGE_REGION_FRACTION_DRAM,
        dram_large / dram_seq,
        unit="frac",
    )
    dram_512 = random_read(512, media=MediaKind.DRAM, region_bytes=90 * GIB)
    pmem_512 = random_read(512, region_bytes=DEFAULT_REGION)
    result.compare(
        "large-region DRAM over PMEM at 512 B (§5.2: ~4x)",
        paperdata.RANDOM_DRAM_OVER_PMEM_512B,
        dram_512 / pmem_512,
        unit="x",
    )
    result.notes.append(
        "hyperthreading helps random reads (36T > 18T), unlike sequential"
    )
    return result
