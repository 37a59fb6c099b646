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
    "MixedOutcome",
    "Op",
    "Pattern",
    "PerfCounters",
    "PinningPolicy",
    "StreamResult",
    "StreamSpec",
    "SystemTopology",
    "build_topology",
    "eval_context",
    "evaluate",
    "paper_calibration",
    "paper_config",
    "paper_server",
    "read_stream",
    "write_stream",
]
