"""Declarative workload generators for the paper's benchmark scenarios.

Each generator returns the exact stream configurations a section of the
paper sweeps, as plain data (:class:`~repro.memsim.spec.StreamSpec`
lists keyed by sweep point), so experiment modules, examples, and tests
all run the same workloads.
"""

from repro.workloads.grids import SweepGrid, SweepPoint
from repro.workloads.mixed import mixed_grid, mixed_streams
from repro.workloads.multisocket import (
    MULTISOCKET_READ_LABELS,
    MULTISOCKET_WRITE_LABELS,
    multisocket_read_scenarios,
    multisocket_write_scenarios,
)
from repro.workloads.random_ import random_sweep
from repro.workloads.sequential import (
    PAPER_ACCESS_SIZES,
    PAPER_THREAD_COUNTS,
    PAPER_WRITE_THREAD_COUNTS,
    numa_locality_sweep,
    pinning_sweep,
    sequential_sweep,
)

__all__ = [
    "MULTISOCKET_READ_LABELS",
    "MULTISOCKET_WRITE_LABELS",
    "PAPER_ACCESS_SIZES",
    "PAPER_THREAD_COUNTS",
    "PAPER_WRITE_THREAD_COUNTS",
    "SweepGrid",
    "SweepPoint",
    "mixed_grid",
    "mixed_streams",
    "multisocket_read_scenarios",
    "multisocket_write_scenarios",
    "numa_locality_sweep",
    "pinning_sweep",
    "random_sweep",
    "sequential_sweep",
]
