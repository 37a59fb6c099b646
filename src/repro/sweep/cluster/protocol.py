"""Wire protocol between the cluster coordinator and its forked workers.

Each worker is a child process the coordinator forks for one sweep,
joined to it by one ``socket.socketpair()``. Everything a worker needs
up front — its session (machine config, directory state, grid name and
gather knobs) and the grid's points — is given at fork, so the wire
carries only work: grid indices one way, computed rows the other.

Frames reuse the :mod:`repro.serve` machinery — one newline-terminated
compact-JSON object per frame (:func:`repro.serve.protocol.dump_line`).
A work item's results travel as one *rows* payload — the
structure-of-arrays column block of
:func:`~repro.sweep.cache.columns_to_payload` without its stream-spec
column (``specs=False``), never an object per point: the coordinator
holds the specs of the points it shipped and re-attaches them. Nothing
on the wire is pickled, so a worker that goes wrong can send bad data
back to the coordinator but never code.

Every field a worker sends is read through :func:`field` (or, for a
``result`` frame's rows, :func:`rows`), which decodes it with the typed
canonical decoder and raises :class:`~repro.errors.SweepError` for a
missing or mistyped value: the receiving side drops the link (and the
coordinator requeues its work) instead of crashing on a ``KeyError``.

Every stream is created with an explicit ``limit`` of
:data:`MAX_FRAME_BYTES` (:func:`open_link`), which is what bounds
``readline`` against a peer that never sends a newline (simlint rule
SIM110 checks this statically across the transport paths).

Frame kinds
-----------

coordinator -> worker:

``chunk``
    One shard of the points the coordinator's caches missed: ``chunk``
    id and the points' grid ``indices``. A worker rejects an index
    outside its grid.
``steal``
    Ask the worker to relinquish about half of its queued points.
``bye``
    Session end; the worker drains nothing further and exits.

worker -> coordinator:

``heartbeat``
    Liveness; any frame refreshes the deadline, this one exists for
    workers parked on a long item.
``result``
    One work item's results: ``chunk`` id, global ``indices``, the
    ``rows`` payload (``offsets``; ``streams`` ``gbps``, ``solo_gbps``
    and ``notes``; ``counters``; ``counter_notes``; ``directory_after``
    — no ``specs``), an optional counters ``snapshot``, and ``wall``
    seconds. Row ``k`` answers point ``indices[k]``, and its offsets
    must give it exactly the streams that point has. Every row is a
    computed miss.
``stolen``
    Answer to ``steal``: the global ``indices`` relinquished (may be
    empty if the queue drained first).
``failed``
    A work item with a failing point: its ``chunk`` id and global
    ``indices``, nothing else. The coordinator stops the sweep and
    re-runs the grid in process, which names the failing point itself.

Every index a ``result``, ``stolen`` or ``failed`` frame names must be
outstanding on the link it arrives on (for ``result`` and ``failed``,
under the frame's own ``chunk``); otherwise the coordinator drops the
link. No frame carries a cache lookup or a cache tally: the coordinator
answers every point its caches hold before it ships anything, and
stores and counts the returned rows itself.
"""

from __future__ import annotations

import asyncio
import json
import socket
from typing import Callable, Mapping, Sequence

from repro import units
from repro.errors import SchemaError, SweepError
from repro.memsim.kernels import ResultColumns
from repro.memsim.spec import StreamSpec
from repro.serve.protocol import dump_line
from repro.sweep.cache import columns_from_payload, decode

__all__ = [
    "MAX_FRAME_BYTES",
    "dump_line",
    "field",
    "open_link",
    "read_frame",
    "rows",
    "send_frame",
]

#: Stream limit for every cluster connection: bounds ``readline`` so a
#: broken peer cannot grow an unbounded buffer. Large enough for the
#: rows of a work item of hundreds of points.
MAX_FRAME_BYTES = 8 * units.MIB


def _read(
    frame: Mapping[str, object], name: str, decoder: Callable[[object], object]
) -> object:
    """Frame member ``name`` through ``decoder``; a :class:`SweepError` if
    it is missing or the decoder raises :class:`SchemaError`."""
    if name not in frame:
        raise SweepError(f"cluster {frame.get('kind')!r} frame lacks {name!r}")
    try:
        return decoder(frame[name])
    except SchemaError as exc:
        raise SweepError(
            f"cluster {frame.get('kind')!r} frame has a bad {name!r}: {exc}"
        ) from exc


def field(frame: Mapping[str, object], name: str, hint: object) -> object:
    """Frame member ``name`` decoded as ``hint`` by the canonical decoder.

    Raises :class:`~repro.errors.SweepError` if the member is missing or
    does not decode (:func:`repro.sweep.cache.decode`).
    """
    return _read(frame, name, lambda value: decode(hint, value))


def rows(
    frame: Mapping[str, object], streams: Sequence[tuple[StreamSpec, ...]]
) -> ResultColumns:
    """A ``result`` frame's ``rows``, its row ``k`` holding ``streams[k]``.

    Every member is checked by the typed canonical decoder
    (:func:`repro.sweep.cache.columns_from_payload` with ``streams``);
    a payload carrying specs, or offsets giving a row a stream count
    other than ``len(streams[k])``, raises :class:`SweepError` too.
    """
    return _read(frame, "rows", lambda value: columns_from_payload(value, streams))


async def open_link(
    sock: socket.socket,
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Streams over one end of a coordinator–worker socketpair."""
    return await asyncio.open_connection(sock=sock, limit=MAX_FRAME_BYTES)


async def read_frame(reader: asyncio.StreamReader) -> Mapping[str, object] | None:
    """Read one frame; ``None`` on a clean EOF.

    The reader's ``limit`` (set to :data:`MAX_FRAME_BYTES` by
    :func:`open_link`) bounds the line; an overlong frame surfaces as
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
