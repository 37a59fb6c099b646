"""Memory-subsystem simulator: the reproduction's hardware substrate.

Public surface:

* :func:`~repro.memsim.topology.paper_server` /
  :func:`~repro.memsim.topology.build_topology` — hardware layout;
* :func:`~repro.memsim.calibration.paper_calibration` — fitted device
  profile;
* :class:`~repro.memsim.config.MachineConfig` /
  :class:`~repro.memsim.config.DirectoryState` — the immutable inputs of
  the pure evaluation core;
* :func:`~repro.memsim.evaluation.evaluate` — the analytic steady-state
  model behind every microbenchmark figure, as a pure function;
* :class:`~repro.memsim.spec.StreamSpec` and friends — workload
  descriptions;
* :mod:`repro.memsim.engine` — the discrete-event cross-check.
"""

from importlib import import_module
from types import MappingProxyType
from typing import Any

from repro.memsim.address import DaxMode, InterleaveMap, MappedRegion
from repro.memsim.calibration import DeviceCalibration, paper_calibration
from repro.memsim.config import DirectoryState, MachineConfig, paper_config
from repro.memsim.context import EvalContext, eval_context
from repro.memsim.evaluation import BandwidthResult, StreamResult, evaluate
from repro.memsim.counters import PerfCounters
from repro.memsim.mixed import MixedOutcome
from repro.memsim.scheduler import PinningPolicy
from repro.memsim.spec import Layout, Op, Pattern, StreamSpec, read_stream, write_stream
from repro.memsim.topology import MediaKind, SystemTopology, build_topology, paper_server

__all__ = [
    "BandwidthResult",
    "DaxMode",
    "DeviceCalibration",
    "DirectoryState",
    "EvalContext",
    "InterleaveMap",
    "MachineConfig",
    "Layout",
    "MappedRegion",
    "MediaKind",
    "MemoryModeConfig",
    "MemoryModeModel",
    "MixedOutcome",
    "Op",
    "Pattern",
    "PerfCounters",
    "PinningPolicy",
    "StreamResult",
    "StreamSpec",
    "SystemTopology",
    "WearEstimate",
    "build_topology",
    "eval_context",
    "evaluate",
    "paper_calibration",
    "paper_config",
    "paper_server",
    "read_stream",
    "wear_from_counters",
    "write_stream",
]

#: Public name -> submodule, imported on first use (:pep:`562`): no
#: experiment models memory mode or wear, so ``import repro.memsim``
#: leaves both unloaded.
_LAZY = MappingProxyType({
    "MemoryModeConfig": "memory_mode",
    "MemoryModeModel": "memory_mode",
    "WearEstimate": "wear",
    "wear_from_counters": "wear",
})


def __getattr__(name: str) -> Any:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
