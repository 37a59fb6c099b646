"""Wire protocol for the cluster sweep backend.

Frames reuse the :mod:`repro.serve` machinery — one newline-terminated
compact-JSON object per frame (:func:`repro.serve.protocol.dump_line`) —
so the coordinator and a ``repro worker`` peer speak the same framing as
the bandwidth server. The payloads that are *not* naturally JSON (the
:class:`~repro.memsim.config.MachineConfig`, ``SweepPoint`` tuples, and
whole :class:`~repro.memsim.kernels.ResultColumns` blocks) travel as
pickled, base64-encoded blobs inside a frame field
(:func:`encode_blob`/:func:`decode_blob`, the pickle boundary simlint
rule SIM202 guards), and pickling a column block is the
structure-of-arrays move — one blob per chunk, never an object per
point.

Every stream is created with an explicit ``limit`` of
:data:`MAX_FRAME_BYTES`, which is what bounds ``readline`` against a
peer that never sends a newline (simlint rule SIM110 checks this
statically across the transport paths).

Frame kinds
-----------

coordinator -> worker:

``hello``
    Session start: protocol string, config/directory blobs, grid name,
    ``observing`` flag, gather knobs (``points_per_item``,
    ``heartbeat_seconds``), and whether the shared cache tier is on.
``chunk``
    One shard of grid points: ``chunk`` id, global ``indices``, request
    ``digests`` (cache keys, precomputed by the coordinator), and the
    ``points`` blob.
``steal``
    Ask the worker to relinquish about half of its queued points.
``cache_found``
    Answer to ``cache_get``: the found ``digests`` and a ``columns``
    blob holding one row per found digest, in that order.
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
    ``columns`` blob, an optional counters ``snapshot``, the cache
    ``stats`` delta ``[hits, misses, disk_hits]``, and ``wall`` seconds.
``stolen``
    Answer to ``steal``: the global ``indices`` relinquished (may be
    empty if the queue drained first).
``failed``
    A poisoned point: global ``index``, ``label``, ``grid``, the pickled
    original exception (``error`` blob), and the item's completed-prefix
    ``partial`` columns blob with its ``partial_indices``.
``cache_get``
    Shared-tier lookup: request ``req`` id and the ``digests`` to probe.
``cache_put``
    Publish computed rows: ``digests`` plus a ``columns`` blob.
"""

from __future__ import annotations

import base64
import json
import pickle
from typing import Mapping

import asyncio

from repro import units
from repro.errors import SweepError
from repro.serve.protocol import dump_line

__all__ = [
    "CLUSTER_PROTOCOL",
    "MAX_FRAME_BYTES",
    "decode_blob",
    "dump_line",
    "encode_blob",
    "read_frame",
    "send_frame",
]

#: Protocol identifier carried by ``hello`` and ``join`` frames.
CLUSTER_PROTOCOL = "repro.sweep.cluster/1"

#: Stream limit for every cluster connection: bounds ``readline`` so a
#: broken or hostile peer cannot grow an unbounded buffer. Large enough
#: for a pickled chunk of hundreds of points.
MAX_FRAME_BYTES = 8 * units.MIB


def encode_blob(obj: object) -> str:
    """Pickle ``obj`` and wrap it as base64 text for a JSON frame field."""
    return base64.b64encode(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def decode_blob(text: str) -> object:
    """Inverse of :func:`encode_blob`."""
    return pickle.loads(base64.b64decode(text.encode("ascii")))


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
