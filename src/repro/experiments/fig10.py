"""Figure 10: writing to multiple sockets.

Near writes double across sockets (25 GB/s); far writes need more
threads, peak at half the near bandwidth (7 GB/s) and amplify up to 10x
internally; near+far writers on the same PMEM cap at ~8 GB/s.
"""

from __future__ import annotations

from repro.experiments import paperdata
from repro.experiments.common import evaluate_grid
from repro.experiments.result import ExperimentResult
from repro.memsim import (
    DirectoryState,
    Op,
    PinningPolicy,
    StreamSpec,
    paper_config,
)
from repro.sweep import default_service
from repro.workloads import MULTISOCKET_WRITE_LABELS, multisocket_write_scenarios


def run() -> ExperimentResult:
    config = paper_config()
    grid = multisocket_write_scenarios()
    values = evaluate_grid(config, grid)
    result = ExperimentResult(exp_id="fig10", title="Writing data to multiple sockets")
    for label in MULTISOCKET_WRITE_LABELS:
        curve = {
            str(point.params["threads"]): values[point.label]
            for point in grid
            if point.params["scenario"] == label
        }
        result.add_series(label, curve)

    near = result.series_values("1 Near")
    far = result.series_values("1 Far")
    result.compare("1 Near peak (Fig. 10: ~12.5 GB/s)", 12.5, max(near.values()))
    result.compare(
        "1 Far peak (Fig. 10: ~7 GB/s)",
        paperdata.WRITE_FAR_PEAK_GBPS,
        max(far.values()),
    )
    best_far = int(max(far, key=far.get))
    result.compare(
        "far-write optimal thread count (§4.4: 6-8)",
        paperdata.WRITE_FAR_BEST_THREADS,
        float(best_far),
        unit="thr",
    )
    result.compare(
        "2 Near total", paperdata.WRITE_2NEAR_GBPS,
        max(result.series_values("2 Near").values()),
    )
    result.compare(
        "2 Far total", paperdata.WRITE_2FAR_GBPS,
        max(result.series_values("2 Far").values()),
    )
    result.compare(
        "near+far on same PMEM (Fig. 10: ~8 GB/s)",
        paperdata.WRITE_SHARED_TARGET_GBPS,
        max(result.series_values("1 Near 1 Far").values()),
    )

    far_run = default_service().evaluate(
        config,
        (
            StreamSpec(
                op=Op.WRITE,
                threads=18,
                pinning=PinningPolicy.NUMA_REGION,
                issuing_socket=0,
                target_socket=1,
            ),
        ),
        DirectoryState.warm(config.topology),
    )
    result.compare(
        "far-write internal amplification (§4.4: up to 10x)",
        paperdata.FAR_WRITE_AMPLIFICATION,
        far_run.counters.write_amplification,
        unit="x",
    )
    return result
