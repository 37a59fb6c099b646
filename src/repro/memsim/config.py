"""Immutable machine configuration and explicit coherence-directory state.

The evaluation core (:mod:`repro.memsim.evaluation`) is a pure function
of three values:

* a :class:`MachineConfig` — topology, calibration, and the two model
  ablation toggles, frozen and hashable so it can key caches;
* the streams to evaluate;
* a :class:`DirectoryState` — the cross-socket coherence directory as an
  explicit immutable value (cold, warm, or any partial in-between)
  instead of hidden mutable state on the model object.

Both types are content-hashable, which is what makes the memoized sweep
service (the layer above memsim) possible: two configurations that describe
the same machine share one cache entry regardless of how they were
constructed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.memsim.calibration import DeviceCalibration, paper_calibration
from repro.memsim.topology import SystemTopology, paper_server


@dataclass(frozen=True)
class DirectoryState:
    """Immutable snapshot of the cross-socket coherence directory.

    The paper's directory warm-up is a per-(reader socket, home socket)
    effect (§3.4): the first multi-threaded far traversal crawls while
    mappings are reassigned, and any completed traversal — including a
    single-threaded priming pass — warms the pair. This type records the
    warm pairs as a value; "touching" a pair returns a *new* state, so an
    evaluation can never leave residue behind in its inputs.
    """

    warm_pairs: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self) -> None:
        # Hashed once, as MachineConfig and StreamSpec are: every cache
        # key holds a state, and the sweep service hashes each grid
        # point's key several times.
        object.__setattr__(self, "_cached_hash", hash(self.warm_pairs))

    def __hash__(self) -> int:
        return self._cached_hash  # type: ignore[attr-defined]

    @classmethod
    def cold(cls) -> "DirectoryState":
        """The state before any far traversal (first runs pay remapping)."""
        return _COLD

    @classmethod
    def warm(cls, topology: SystemTopology) -> "DirectoryState":
        """Every socket pair pre-touched (models a priming pass, §3.4)."""
        return cls(frozenset(
            (a.socket_id, b.socket_id)
            for a in topology.sockets
            for b in topology.sockets
            if a.socket_id != b.socket_id
        ))

    def is_warm(self, reader_socket: int, home_socket: int) -> bool:
        """Whether a far read from ``reader_socket`` runs at warm speed."""
        if reader_socket == home_socket:
            return True
        return (reader_socket, home_socket) in self.warm_pairs

    def touch(self, reader_socket: int, home_socket: int) -> "DirectoryState":
        """State after a completed far traversal warmed the mapping."""
        if reader_socket == home_socket:
            return self
        if (reader_socket, home_socket) in self.warm_pairs:
            return self
        return DirectoryState(self.warm_pairs | {(reader_socket, home_socket)})

    def invalidate(self, home_socket: int) -> "DirectoryState":
        """State after dropping all warm mappings for one home socket."""
        kept = frozenset(p for p in self.warm_pairs if p[1] != home_socket)
        return self if kept == self.warm_pairs else DirectoryState(kept)

    def restrict(self, pairs: frozenset[tuple[int, int]]) -> "DirectoryState":
        """Projection onto ``pairs`` — the warmth an evaluation can observe.

        Used by the sweep service to normalize cache keys: an evaluation
        that performs no far reads produces identical results under any
        directory state, so all such calls share one cache entry.
        """
        kept = self.warm_pairs & pairs
        return self if kept == self.warm_pairs else DirectoryState(kept)


_COLD = DirectoryState()


@dataclass(frozen=True)
class MachineConfig:
    """Immutable, hashable description of one simulated server.

    Bundles everything :func:`repro.memsim.evaluation.evaluate` needs
    besides the workload itself: the hardware layout, the fitted device
    calibration, and the two what-if ablation toggles. The calibration is
    validated once at construction (not per evaluation), and the hash is
    computed once and cached — a topology holds hundreds of frozen
    component records, so hashing it per cache lookup would dominate.
    """

    topology: SystemTopology = field(default_factory=paper_server)
    calibration: DeviceCalibration = field(default_factory=paper_calibration)
    prefetcher_enabled: bool = True
    write_combining_enabled: bool = True

    def __post_init__(self) -> None:
        self.calibration.validate()
        object.__setattr__(self, "_cached_hash", hash((
            self.topology,
            self.calibration,
            self.prefetcher_enabled,
            self.write_combining_enabled,
        )))

    def __hash__(self) -> int:
        return self._cached_hash  # type: ignore[attr-defined]


@lru_cache(maxsize=1)
def paper_config() -> MachineConfig:
    """The shared paper-profile configuration (validated exactly once).

    Every default-constructed consumer (experiments, advisor, CLI) shares
    this instance, so their evaluations share cache entries too.
    """
    return MachineConfig()
