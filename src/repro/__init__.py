"""repro — reproduction of "Maximizing Persistent Memory Bandwidth
Utilization for OLAP Workloads" (Daase et al., SIGMOD 2021).

The package provides five layers:

* :mod:`repro.memsim` — a mechanistic simulator of the paper's dual-
  socket Optane/DRAM memory subsystem (the hardware substrate the paper
  measured);
* :mod:`repro.workloads` — the paper's microbenchmark workloads as data;
* :mod:`repro.core` — the paper's contribution: 12 insights, 7 best
  practices, a configuration tuner, and a placement advisor, all checked
  against the simulator rather than hard-coded;
* :mod:`repro.ssb` — a real, executing Star Schema Benchmark (generator,
  columnar engine, Dash-like and chained hash indexes) whose measured
  traffic the simulator prices for PMEM/DRAM/SSD deployments;
* :mod:`repro.experiments` — every figure and table of the paper's
  evaluation, regenerated from the layers above.

Quickstart::

    from repro import PlacementAdvisor, WorkloadIntent
    from repro.core import AccessProfile
    from repro.memsim import evaluate, paper_config, read_stream, write_stream

    config = paper_config()
    print(evaluate(config, [read_stream(18)]).total_gbps)    # ~40 GB/s
    print(evaluate(config, [write_stream(36, access_size=65536)]).total_gbps)
    # ^ the §4.2 collapse: many threads writing large blocks

    advisor = PlacementAdvisor()
    intent = WorkloadIntent(profile=AccessProfile.JOIN_HEAVY)
    print(advisor.recommend(intent).describe())
"""

from typing import Any

from repro.memsim import (
    DaxMode,
    DeviceCalibration,
    Layout,
    MediaKind,
    Op,
    Pattern,
    PinningPolicy,
    StreamSpec,
    build_topology,
    paper_calibration,
    paper_server,
)

__version__ = "1.0.0"

__all__ = [
    "AccessProfile",
    "DaxMode",
    "DeviceCalibration",
    "Layout",
    "MediaKind",
    "Op",
    "Pattern",
    "PinningPolicy",
    "PlacementAdvisor",
    "Recommendation",
    "StreamSpec",
    "WorkloadIntent",
    "__version__",
    "build_topology",
    "paper_calibration",
    "paper_server",
    "verify_all",
    "verify_practices",
]

#: Names re-exported from :mod:`repro.core`, imported on first use
#: (:pep:`562`) so that ``import repro`` does not load the advisor.
_CORE = frozenset({
    "AccessProfile",
    "PlacementAdvisor",
    "Recommendation",
    "WorkloadIntent",
    "verify_all",
    "verify_practices",
})


def __getattr__(name: str) -> Any:
    if name not in _CORE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro import core

    return getattr(core, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
