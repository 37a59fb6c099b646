"""Wire protocol for the cluster sweep backend.

Frames reuse the :mod:`repro.serve` machinery — one newline-terminated
compact-JSON object per frame (:func:`repro.serve.protocol.dump_line`) —
so the coordinator and a ``repro worker`` peer speak the same framing as
the bandwidth server. Every payload travels in the canonical JSON
encoding the disk cache already stores (:mod:`repro.sweep.cache`): the
:class:`~repro.memsim.config.MachineConfig` and streams as
:func:`~repro.sweep.cache.encode` values, whole
:class:`~repro.memsim.kernels.ResultColumns` blocks as
:func:`~repro.sweep.cache.columns_to_payload` structure-of-arrays
payloads — one block per work item, never an object per point. Nothing
on the wire is pickled, so a peer can send bad data but never code.

Every field a peer sends is read through :func:`field`, which decodes
it with the typed canonical decoder and raises
:class:`~repro.errors.SweepError` for a missing or mistyped value: the
receiving side drops the link (and the coordinator requeues its work)
instead of crashing on a ``KeyError``.

Every stream is created with an explicit ``limit`` of
:data:`MAX_FRAME_BYTES`, which is what bounds ``readline`` against a
peer that never sends a newline (simlint rule SIM110 checks this
statically across the transport paths).

Frame kinds
-----------

coordinator -> worker:

``hello``
    Session start: protocol string, the encoded ``config``, the
    ``directory`` warm pairs, grid name, ``observing`` flag, and gather
    knobs (``points_per_item``, ``heartbeat_seconds``).
``chunk``
    One shard of the points the coordinator's caches missed: ``chunk``
    id, global ``indices``, point ``labels`` and each point's encoded
    ``streams``.
``steal``
    Ask the worker to relinquish about half of its queued points.
``bye``
    Session end; the worker drains nothing further and disconnects.

worker -> coordinator:

``join``
    First frame after connecting; carries the protocol string.
``heartbeat``
    Liveness; any frame refreshes the deadline, this one exists for
    workers parked on a long item.
``result``
    One work item's results: ``chunk`` id, global ``indices``, the
    ``columns`` block, an optional counters ``snapshot``, the cache
    ``stats`` delta ``[hits, misses, disk_hits]``, and ``wall`` seconds.
``stolen``
    Answer to ``steal``: the global ``indices`` relinquished (may be
    empty if the queue drained first).
``failed``
    A poisoned point: global ``index``, ``label``, ``grid``, the
    original exception's class name (``error_type``) and message
    (``error``), and the item's completed-prefix ``partial`` columns
    block with its ``partial_indices``.

No frame carries a cache lookup: the coordinator answers every point
its caches hold before it ships anything, and stores the returned rows
itself.
"""

from __future__ import annotations

import json
from typing import Mapping

import asyncio

from repro import units
from repro.errors import SchemaError, SweepError
from repro.serve.protocol import dump_line
from repro.sweep.cache import decode

__all__ = [
    "CLUSTER_PROTOCOL",
    "MAX_FRAME_BYTES",
    "dump_line",
    "field",
    "read_frame",
    "send_frame",
]

#: Protocol identifier carried by ``hello`` and ``join`` frames.
CLUSTER_PROTOCOL = "repro.sweep.cluster/3"

#: Stream limit for every cluster connection: bounds ``readline`` so a
#: broken or hostile peer cannot grow an unbounded buffer. Large enough
#: for a chunk of hundreds of encoded points.
MAX_FRAME_BYTES = 8 * units.MIB


def field(frame: Mapping[str, object], name: str, hint: object) -> object:
    """Frame member ``name`` decoded as ``hint`` by the canonical decoder.

    Raises :class:`~repro.errors.SweepError` if the member is missing or
    does not decode (:func:`repro.sweep.cache.decode`).
    """
    if name not in frame:
        raise SweepError(f"cluster {frame.get('kind')!r} frame lacks {name!r}")
    try:
        return decode(hint, frame[name])
    except SchemaError as exc:
        raise SweepError(
            f"cluster {frame.get('kind')!r} frame has a bad {name!r}: {exc}"
        ) from exc


async def read_frame(reader: asyncio.StreamReader) -> Mapping[str, object] | None:
    """Read one frame; ``None`` on a clean EOF.

    The reader's ``limit`` (set to :data:`MAX_FRAME_BYTES` at connection
    time) bounds the line; an overlong frame surfaces as
    :class:`~repro.errors.SweepError` rather than a silent buffer blowup.
    """
    try:
        line = await reader.readline()
    except ValueError as exc:  # limit overrun
        raise SweepError(f"cluster frame exceeds {MAX_FRAME_BYTES} bytes") from exc
    if not line:
        return None
    try:
        frame = json.loads(line)
    except ValueError as exc:
        raise SweepError(f"cluster frame is not JSON: {exc}") from exc
    if not isinstance(frame, dict) or not isinstance(frame.get("kind"), str):
        raise SweepError("cluster frame must be an object with a 'kind'")
    return frame


async def send_frame(
    writer: asyncio.StreamWriter, frame: Mapping[str, object]
) -> None:
    """Serialize and flush one frame."""
    writer.write(dump_line(frame))
    await writer.drain()
