"""Tunables for the cluster sweep backend, with a process-wide default.

The :class:`~repro.sweep.SweepRunner` interface has no room for
cluster-specific knobs (worker endpoints, heartbeat cadence), so they
travel out-of-band: the CLI installs a :class:`ClusterOptions` via
:func:`set_default_cluster_options` before running experiments, the same
pattern :func:`repro.sweep.service.set_default_service` uses for the
disk cache.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = [
    "ClusterOptions",
    "default_cluster_options",
    "parse_endpoint",
    "set_default_cluster_options",
]

#: Target chunks per worker for the content-hash sharding of the missed
#: points: enough to balance load, few enough to amortise per-chunk
#: framing.
CHUNKS_PER_WORKER = 4


@dataclass(frozen=True)
class ClusterOptions:
    """Configuration of one cluster sweep.

    ``workers`` local worker processes are spawned unless ``connect``
    names remote ``repro worker`` endpoints, in which case exactly those
    peers are used. The remaining knobs shape granularity and fault
    detection; none of them can change results, only wall time.
    """

    #: Local worker processes to spawn (ignored when ``connect`` is set).
    workers: int = 2
    #: Remote ``(host, port)`` worker endpoints the coordinator dials.
    connect: tuple[tuple[str, int], ...] = ()
    #: Points per work item — the steal/response granularity inside a
    #: worker; chunks are split into items of this size.
    points_per_item: int = 8
    #: Worker heartbeat cadence, seconds.
    heartbeat_seconds: float = 1.0
    #: Silence (no frame of any kind) after which a worker is declared
    #: dead and its outstanding work is requeued.
    heartbeat_timeout_seconds: float = 30.0
    #: Seconds to wait for the first worker to join before giving up.
    join_timeout_seconds: float = 60.0

    def __post_init__(self) -> None:
        if self.workers < 1 and not self.connect:
            raise ConfigurationError(
                f"cluster workers must be >= 1, got {self.workers}"
            )
        if self.points_per_item < 1:
            raise ConfigurationError(
                f"points_per_item must be >= 1, got {self.points_per_item}"
            )


def parse_endpoint(text: str) -> tuple[str, int]:
    """Parse a ``HOST:PORT`` endpoint string (the CLI's ``--connect``)."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ConfigurationError(
            f"bad worker endpoint {text!r}; expected HOST:PORT"
        )
    try:
        return host, int(port)
    except ValueError:
        raise ConfigurationError(
            f"bad worker endpoint {text!r}; port must be an integer"
        ) from None


_DEFAULT_OPTIONS = ClusterOptions()


def default_cluster_options() -> ClusterOptions:
    """The process-wide options ``backend="cluster"`` runs use."""
    return _DEFAULT_OPTIONS


def set_default_cluster_options(
    options: ClusterOptions | None,
) -> ClusterOptions:
    """Replace the process-wide options; returns the previous value.

    Pass ``None`` to restore the documented defaults.
    """
    global _DEFAULT_OPTIONS
    previous = _DEFAULT_OPTIONS
    _DEFAULT_OPTIONS = options if options is not None else ClusterOptions()
    return previous
