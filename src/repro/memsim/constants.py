"""Architectural constants of the modeled memory subsystem.

These are *structural* facts taken directly from the paper's Section 2
(and Intel documentation cited there), as opposed to the *fitted* device
parameters in :mod:`repro.memsim.calibration`. Structural constants are
not tunable: changing them would model a different machine, not a
differently calibrated one.
"""

from __future__ import annotations

from repro.units import GIB, KIB

#: CPU cache line size in bytes. All loads/stores reach memory in units of
#: this size; the paper's microbenchmarks use 64 B ``vmovntdqa(a)`` chunks.
CACHE_LINE: int = 64

#: Optane's internal access granularity ("XPLine") in bytes. The DIMM
#: controller reads and writes the 3D-XPoint media in 256 B units; smaller
#: external accesses cause read/write amplification (paper §2.1, §4.1).
OPTANE_LINE: int = 256

#: DIMM interleaving granularity in bytes. Data is striped across the six
#: DIMMs of a socket in 4 KB steps (paper Figure 2).
INTERLEAVE_SIZE: int = 4 * KIB

#: Number of memory channels per integrated memory controller.
CHANNELS_PER_IMC: int = 3

#: Number of integrated memory controllers per socket.
IMCS_PER_SOCKET: int = 2

#: Number of physical cores per socket on the paper's Xeon Gold 5220S.
PHYSICAL_CORES_PER_SOCKET: int = 18

#: Hyperthreads (logical cores) per physical core.
THREADS_PER_CORE: int = 2

#: Number of NUMA nodes per socket (sub-NUMA clustering; paper §2.3: each
#: socket is one NUMA *region* made of two NUMA *nodes* of 9 cores + 1 iMC).
NUMA_NODES_PER_SOCKET: int = 2

#: Number of sockets in the paper's evaluation server.
SOCKETS: int = 2

#: Capacity of a single Optane DIMM in the paper's system.
PMEM_DIMM_CAPACITY: int = 128 * GIB

#: Capacity of a single DDR4 DIMM in the paper's system.
DRAM_DIMM_CAPACITY: int = 16 * GIB

#: Default huge-page size used by devdax/fsdax mappings (ndctl default).
PMEM_PAGE_SIZE: int = 2 * 1024 * KIB

#: Share of a far payload's volume that crosses the UPI again as
#: requests and directory metadata. The paper's VTune run shows 90%+ UPI
#: utilization in the "2 Far" read scenario although each direction moves
#: only ~25 GB/s of payload: a direction carries its own payload's
#: metadata plus the requests for payload flowing the other way. Both the
#: evaluation core's utilization counter and the obs probes use it.
UPI_REQUEST_FRACTION: float = 0.28

#: Default per-config data volume of the paper's read/write sweeps (70 GB).
DEFAULT_SWEEP_BYTES: int = 70 * GIB
