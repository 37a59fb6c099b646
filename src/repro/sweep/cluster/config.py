"""Tunables for the cluster sweep backend."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["ClusterOptions"]

#: Target chunks per worker for the content-hash sharding of the missed
#: points: enough to balance load, few enough to amortise per-chunk
#: framing.
CHUNKS_PER_WORKER = 4


@dataclass(frozen=True)
class ClusterOptions:
    """Configuration of one cluster sweep.

    The worker count is the runner's ``jobs`` (at least two). These
    knobs shape granularity and fault detection; none of them can change
    results, only wall time.
    """

    #: Points per work item — the steal/response granularity inside a
    #: worker; chunks are split into items of this size. An item is one
    #: kernel call and one ``result`` frame, so small items pay both
    #: per-call costs many times: 8 points made a cold 1000-point grid
    #: ~1.5x slower than 32 on a 2-core host, and 64 or 128 were no
    #: faster there. At 32 the ~125-point chunks of a 1000-point grid
    #: on two workers still queue items a steal can move.
    points_per_item: int = 32
    #: Worker heartbeat cadence, seconds.
    heartbeat_seconds: float = 1.0
    #: Silence (no frame of any kind) after which a worker is declared
    #: dead and its outstanding work is requeued.
    heartbeat_timeout_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.points_per_item < 1:
            raise ConfigurationError(
                f"points_per_item must be >= 1, got {self.points_per_item}"
            )
        if not 0.0 < self.heartbeat_seconds < math.inf:
            raise ConfigurationError(
                f"heartbeat_seconds must be positive and finite, "
                f"got {self.heartbeat_seconds}"
            )
