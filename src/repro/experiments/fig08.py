"""Figure 8: the write "boomerang" heatmap (access size x thread count).

Bandwidth above 10 GB/s survives along three edges — small sizes at any
thread count, any size at 4-6 threads — and collapses when both axes
grow together.
"""

from __future__ import annotations

from repro.experiments.result import ExperimentResult
from repro.memsim import Layout, MachineConfig, paper_config, write_stream
from repro.sweep import stream_gbps
from repro.units import MIB

SIZES = (64, 256, 1024, 4096, 16384, 65536, MIB, 32 * MIB)
THREADS = (1, 2, 4, 6, 8, 12, 18, 24, 30, 36)


def heatmap(config: MachineConfig, layout: Layout) -> dict[str, dict[str, float]]:
    """Thread-count rows of the (threads x size) write bandwidth matrix."""
    def cell(threads: int, size: int) -> float:
        spec = write_stream(threads, access_size=size, layout=layout)
        return stream_gbps(config, (spec,))

    return {str(t): {str(s): cell(t, s) for s in SIZES} for t in THREADS}


def boomerang_cells(rows: dict[str, dict[str, float]], threshold: float = 10.0):
    """Cells above the paper's 10 GB/s contour."""
    return {
        (int(t), int(s))
        for t, row in rows.items()
        for s, value in row.items()
        if value >= threshold
    }


def run() -> ExperimentResult:
    config = paper_config()
    result = ExperimentResult(
        exp_id="fig8", title="Write bandwidth heatmap: the boomerang"
    )
    for layout, panel in ((Layout.GROUPED, "a-grouped"), (Layout.INDIVIDUAL, "b-individual")):
        rows = heatmap(config, layout)
        for threads, row in rows.items():
            result.add_series(f"{panel}/{threads}T", row)

    rows = {
        name.split("/")[1].rstrip("T"): series
        for name, series in result.series.items()
        if name.startswith("b-individual/")
    }
    hot = boomerang_cells(rows)
    # The three boomerang claims from §4.2, as counts over the contour:
    result.compare(
        "4-6 thread rows stay hot out to 32 MB (cells >= 10 GB/s)",
        2 * len(SIZES) - 2,  # nearly all of the 4- and 6-thread rows
        float(sum(1 for t, s in hot if t in (4, 6))),
        unit="cells",
    )
    result.compare(
        "36-thread row is hot only below ~512 B",
        1.0,
        float(sum(1 for t, s in hot if t == 36)),
        unit="cells",
    )
    result.compare(
        "no hot cells with both axes large (t>=18, s>=4 KB)",
        0.0 + 1,  # offset by one to keep the ratio defined
        float(sum(1 for t, s in hot if t >= 18 and s >= 4096)) + 1,
        unit="cells",
    )
    return result
