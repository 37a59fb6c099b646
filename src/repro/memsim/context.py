"""Per-configuration evaluation context: config-derived tables, built once.

Every call to :func:`repro.memsim.evaluation.evaluate` needs the same
config-derived facts — socket validity, physical core counts, interleave
ways and maps, mixed-interference coefficients, random-access rate
denominators, UPI payload ceilings — and none of them depend on the
streams or the directory state. Deriving them per call means linear
scans over the topology tuples and repeated float arithmetic on every
one of the tens of thousands of points a figure sweep evaluates.

:class:`EvalContext` hoists all of it: an immutable bundle derived once
per :class:`~repro.memsim.config.MachineConfig` and cached in a bounded
LRU (:func:`eval_context`). The tables store the *same values the same
float operations would produce inline*, in the same operation order, so
threading a context through the evaluator changes no numeric output —
the golden snapshots in ``tests/obs/goldens/`` hold byte-for-byte.

The context is a pure function of its config: it carries no mutable
state and is never part of a cache key (the config itself is the key).
simlint rule SIM105 ("context-derivable-constant") statically flags hot
paths that bypass it by recomputing topology tables per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from repro.errors import TopologyError
from repro.memsim import mixed, random_access
from repro.memsim.address import InterleaveMap
from repro.memsim.buffers import ReadBufferModel, WriteCombiningModel
from repro.memsim.config import MachineConfig
from repro.memsim.imc import ImcModel
from repro.memsim.prefetcher import PrefetcherModel
from repro.memsim.scheduler import SchedulerModel
from repro.memsim.topology import MediaKind
from repro.memsim.upi import UpiModel


@dataclass(frozen=True)
class Components:
    """The stateless component models derived from one configuration."""

    prefetcher: PrefetcherModel
    write_combining: WriteCombiningModel
    read_buffer: ReadBufferModel
    upi: UpiModel
    imc: ImcModel
    scheduler: SchedulerModel


@lru_cache(maxsize=64)
def components(config: MachineConfig) -> Components:
    """Component models for ``config``, built once per distinct config."""
    cal = config.calibration
    return Components(
        prefetcher=PrefetcherModel(cal.cpu, enabled=config.prefetcher_enabled),
        write_combining=WriteCombiningModel(
            cal.pmem, enabled=config.write_combining_enabled
        ),
        read_buffer=ReadBufferModel(cal.pmem),
        upi=UpiModel(cal.upi, cal.pmem),
        imc=ImcModel(),
        scheduler=SchedulerModel(cal.cpu),
    )


@dataclass(frozen=True, eq=False)
class EvalContext:
    """Immutable config-derived tables for one :class:`MachineConfig`.

    Instances compare by identity (two contexts for equal configs hold
    equal tables; :func:`eval_context` deduplicates them anyway). The
    mappings are read-only views — the context is shared across threads
    and across every evaluation of a sweep.
    """

    config: MachineConfig
    components: Components
    #: Valid socket ids, for O(1) stream validation.
    socket_ids: frozenset[int]
    #: ``socket_id -> physical core count`` (topology scan hoisted).
    physical_core_count: Mapping[int, int]
    #: ``(socket_id, media) -> DIMM ways`` for every socket and media kind.
    interleave_ways: Mapping[tuple[int, MediaKind], int]
    #: ``(socket_id, media) -> InterleaveMap``; ``None`` where no DIMMs of
    #: that kind exist (the evaluator raises the same WorkloadError inline
    #: code would).
    interleave_maps: Mapping[tuple[int, MediaKind], InterleaveMap | None]
    #: Sockets with PMEM DIMMs, and sockets with at least one physical
    #: core: the two topology facts point classification checks.
    pmem_sockets: frozenset[int]
    cored_sockets: frozenset[int]
    #: Mixed read/write interference coefficients per media kind.
    mixed_params: Mapping[MediaKind, mixed.MediaInterferenceParams]
    #: Random-access rate denominators and peak ceilings.
    random_tables: random_access.RandomAccessTables
    #: UPI payload capacity per direction in decimal GB/s.
    upi_data_cap: float
    #: Warm far-read ceilings per media in decimal GB/s.
    warm_far_read_cap_pmem: float
    warm_far_read_cap_dram: float

    def require_socket(self, socket_id: int) -> None:
        """Validate a socket id; same error the topology lookup raises."""
        if socket_id not in self.socket_ids:
            raise TopologyError(f"no such socket: {socket_id}")


def _build_context(config: MachineConfig) -> EvalContext:
    topology = config.topology
    cal = config.calibration
    parts = components(config)
    socket_ids = frozenset(s.socket_id for s in topology.sockets)
    physical = {
        sid: topology.physical_core_count(sid) for sid in sorted(socket_ids)
    }
    ways: dict[tuple[int, MediaKind], int] = {}
    maps: dict[tuple[int, MediaKind], InterleaveMap | None] = {}
    for sid in sorted(socket_ids):
        for media in MediaKind:
            w = topology.interleave_ways(sid, media)
            ways[(sid, media)] = w
            maps[(sid, media)] = InterleaveMap(ways=w) if w > 0 else None
    mixed_params = {
        media: mixed.media_params(cal, media)
        for media in (MediaKind.PMEM, MediaKind.DRAM)
    }
    upi = parts.upi
    return EvalContext(
        config=config,
        components=parts,
        socket_ids=socket_ids,
        physical_core_count=MappingProxyType(physical),
        interleave_ways=MappingProxyType(ways),
        interleave_maps=MappingProxyType(maps),
        pmem_sockets=frozenset(
            sid for sid in socket_ids if maps[(sid, MediaKind.PMEM)] is not None
        ),
        cored_sockets=frozenset(sid for sid in socket_ids if physical[sid] >= 1),
        mixed_params=MappingProxyType(mixed_params),
        random_tables=random_access.tables_for(cal),
        upi_data_cap=upi.data_cap_per_direction,
        warm_far_read_cap_pmem=upi.warm_far_read_cap(cal.pmem.warm_far_read_max),
        warm_far_read_cap_dram=upi.warm_far_read_cap(cal.dram.warm_far_read_max),
    )


@lru_cache(maxsize=16)
def eval_context(config: MachineConfig) -> EvalContext:
    """The :class:`EvalContext` for ``config`` (bounded per-config LRU).

    ``MachineConfig`` caches its own hash, so the lookup costs one dict
    probe in the steady state; the table build runs once per distinct
    config, not once per evaluation.
    """
    return _build_context(config)
