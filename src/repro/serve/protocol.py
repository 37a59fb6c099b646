"""Wire protocol for :mod:`repro.serve`: newline-delimited JSON frames.

One request per line, one response per line, UTF-8, no dependency
beyond the stdlib ``json`` module. The protocol string identifies the
frame schema; a server answers frames for exactly one protocol version.

Requests
--------

Every frame is a JSON object with ``"kind"`` and an optional caller
``"id"`` (echoed verbatim in the response so clients can pipeline).
Kinds:

``ping``
    Liveness probe; answered immediately with the protocol string.
``evaluate``
    One workload point (``streams``, optional ``warm_pairs`` /
    ``prefetcher`` / ``write_combining`` / ``deadline_seconds`` /
    ``counters``); eligible for gather-window coalescing.
``sweep``
    Many points in one frame (``points``: a list of stream lists);
    admitted as a unit and evaluated as one batch.
``advise``
    A :class:`~repro.core.advisor.WorkloadIntent` (``intent`` object);
    answered immediately from the placement advisor, no evaluation.

Responses
---------

``{"id": ..., "ok": true, "kind": ..., "result": ...}`` on success and
``{"id": ..., "ok": false, "error": {"code", "message", ...}}`` on
failure, where ``code`` is a :class:`~repro.errors.ServeError` code.
Result payloads round-trip every float through ``json`` exactly
(CPython serializes via ``repr``), so two responses are byte-identical
iff the underlying results are bit-identical — the coalescing parity
tests rely on this.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Mapping, get_type_hints

from repro.errors import ConfigurationError, SchemaError, ServeError, WorkloadError
from repro.core.advisor import AccessProfile, WorkloadIntent
from repro.memsim.config import DirectoryState, MachineConfig, paper_config
from repro.memsim.spec import StreamSpec
from repro.sweep.cache import decode, encode as encode_stream

if TYPE_CHECKING:
    from repro.core.advisor import Recommendation
    from repro.memsim.evaluation import BandwidthResult
    from repro.memsim.kernels.columns import ResultColumns

__all__ = [
    "PROTOCOL",
    "Request",
    "decode_request",
    "decode_stream",
    "dump_line",
    "encode_point",
    "encode_recommendation",
    "encode_result",
    "encode_stream",
    "error_response",
    "ok_response",
]

#: Protocol identifier answered by ``ping`` and checked nowhere else —
#: the frame schema itself is the contract.
PROTOCOL = "repro.serve/1"

KINDS = ("ping", "evaluate", "sweep", "advise")

#: StreamSpec field name -> type hint, for the typed canonical decoder.
_STREAM_HINTS = get_type_hints(StreamSpec)


@lru_cache(maxsize=4)
def _config_for(prefetcher: bool, write_combining: bool) -> MachineConfig:
    """The paper config with the two ablation toggles applied.

    Cached so every request with the same toggles shares one
    ``MachineConfig`` instance — identity sharing keeps cache-key
    hashing cheap and lets coalesced batches group by config object.
    """
    if prefetcher and write_combining:
        return paper_config()
    base = paper_config()
    return MachineConfig(
        topology=base.topology,
        calibration=base.calibration,
        prefetcher_enabled=prefetcher,
        write_combining_enabled=write_combining,
    )


@dataclass(frozen=True)
class Request:
    """A decoded, validated request frame.

    ``deadline_seconds`` is a *relative* budget (seconds from admission);
    the server converts it to an absolute deadline on its own clock.
    """

    kind: str
    id: object = None
    streams: tuple[StreamSpec, ...] = ()
    points: tuple[tuple[StreamSpec, ...], ...] = ()
    directory: DirectoryState = DirectoryState.cold()
    config: MachineConfig = None  # type: ignore[assignment]
    deadline_seconds: "float | None" = None
    include_counters: bool = False
    intent: "WorkloadIntent | None" = None

    def __post_init__(self) -> None:
        if self.config is None:
            object.__setattr__(self, "config", paper_config())


def _bad(message: str) -> ServeError:
    return ServeError("bad_request", message)


def decode_stream(obj: object) -> StreamSpec:
    """Decode one wire stream object into a :class:`StreamSpec`.

    The inverse of :func:`encode_stream`, field by field through the
    canonical decoder (:func:`repro.sweep.cache.decode`), except that
    absent fields take the ``StreamSpec`` defaults. Raises
    :class:`ServeError` (code ``bad_request``) for unknown fields, bad
    enum values, non-integer counts, sizes or sockets, or specs the
    workload validator rejects.
    """
    if not isinstance(obj, Mapping):
        raise _bad(f"stream must be an object, got {type(obj).__name__}")
    kwargs: dict[str, object] = {}
    for name, value in obj.items():
        if name not in _STREAM_HINTS:
            raise _bad(f"unknown stream field {name!r}")
        try:
            kwargs[name] = decode(_STREAM_HINTS[name], value)
        except SchemaError as exc:
            raise _bad(f"bad {name!r} value: {exc}") from None
    try:
        return StreamSpec(**kwargs)
    except (WorkloadError, TypeError) as exc:
        raise _bad(f"invalid stream: {exc}") from exc


def _decode_streams(obj: object, what: str) -> tuple[StreamSpec, ...]:
    if not isinstance(obj, list) or not obj:
        raise _bad(f"{what} must be a non-empty list of stream objects")
    return tuple(decode_stream(item) for item in obj)


def _decode_directory(obj: object) -> DirectoryState:
    if obj is None:
        return DirectoryState.cold()
    try:
        return DirectoryState(decode(frozenset[tuple[int, int]], obj))
    except SchemaError as exc:
        raise _bad(
            f"bad warm pairs ({exc}); expected a list of [issuing, target] pairs"
        ) from None


def _decode_intent(obj: object) -> WorkloadIntent:
    if not isinstance(obj, Mapping):
        raise _bad("intent must be an object")
    kwargs = dict(obj)
    profile = kwargs.pop("profile", None)
    try:
        profile = AccessProfile(profile)
    except ValueError:
        raise _bad(
            f"bad profile {profile!r}; expected one of "
            f"{sorted(member.value for member in AccessProfile)}"
        ) from None
    try:
        return WorkloadIntent(profile=profile, **kwargs)
    except (ConfigurationError, TypeError) as exc:
        raise _bad(f"invalid intent: {exc}") from exc


def decode_request(payload: Mapping[str, object]) -> Request:
    """Validate one parsed frame into a :class:`Request`.

    Raises :class:`ServeError` with code ``bad_request`` for anything
    the server cannot evaluate; the message names the offending field.
    """
    if not isinstance(payload, Mapping):
        raise _bad(f"frame must be a JSON object, got {type(payload).__name__}")
    kind = payload.get("kind")
    if kind not in KINDS:
        raise _bad(f"unknown kind {kind!r}; expected one of {list(KINDS)}")
    request_id = payload.get("id")

    deadline = payload.get("deadline_seconds")
    if deadline is not None:
        if (
            not isinstance(deadline, (int, float))
            or isinstance(deadline, bool)
            or not math.isfinite(deadline)
            or deadline <= 0
        ):
            raise _bad("deadline_seconds must be a positive finite number")
        deadline = float(deadline)

    include_counters = payload.get("counters", False)
    if not isinstance(include_counters, bool):
        raise _bad("counters must be a boolean")

    config = _config_for(
        bool(payload.get("prefetcher", True)),
        bool(payload.get("write_combining", True)),
    )
    directory = _decode_directory(payload.get("warm_pairs"))

    if kind == "ping":
        return Request(kind="ping", id=request_id)
    if kind == "advise":
        return Request(
            kind="advise", id=request_id, intent=_decode_intent(payload.get("intent"))
        )
    if kind == "evaluate":
        streams = _decode_streams(payload.get("streams"), "streams")
        return Request(
            kind="evaluate",
            id=request_id,
            streams=streams,
            directory=directory,
            config=config,
            deadline_seconds=deadline,
            include_counters=include_counters,
        )
    points_obj = payload.get("points")
    if not isinstance(points_obj, list) or not points_obj:
        raise _bad("points must be a non-empty list of stream lists")
    points = tuple(
        _decode_streams(point, f"points[{i}]") for i, point in enumerate(points_obj)
    )
    return Request(
        kind="sweep",
        id=request_id,
        points=points,
        directory=directory,
        config=config,
        deadline_seconds=deadline,
        include_counters=include_counters,
    )


# ----------------------------------------------------------------------
# result encoding
# ----------------------------------------------------------------------


def encode_result(
    result: "BandwidthResult", *, include_counters: bool = False
) -> dict[str, object]:
    """The wire payload for one evaluation result.

    Floats pass through untouched (``json`` emits ``repr``), so equal
    payload bytes ⇔ bit-identical results. ``warm_pairs`` reports the
    full ``directory_after`` so callers can thread state into their next
    request.
    """
    out: dict[str, object] = {
        "total_gbps": result.total_gbps,
        "streams": [
            {"gbps": s.gbps, "solo_gbps": s.solo_gbps, "notes": list(s.notes)}
            for s in result.streams
        ],
        "warm_pairs": sorted(
            list(pair) for pair in (result.directory_after or DirectoryState.cold()).warm_pairs
        ),
    }
    if include_counters:
        counters = result.counters
        from repro.memsim.kernels.columns import COUNTER_COLUMNS

        payload = {name: getattr(counters, name) for name in COUNTER_COLUMNS}
        payload["notes"] = list(counters.notes)
        out["counters"] = payload
    return out


def encode_point(
    columns: "ResultColumns", row: int, *, include_counters: bool = False
) -> dict[str, object]:
    """Columnar twin of :func:`encode_result` for batch row ``row``.

    Reads the column arrays directly — no per-point ``BandwidthResult``
    is materialized — yet produces the byte-identical payload
    ``encode_result(columns.view(row))`` would (same floats, same
    ordering), which is what lets the server slice coalesced batches
    straight onto the wire.
    """
    lo, hi = columns.offsets[row], columns.offsets[row + 1]
    directory = columns.directory_after[row] or DirectoryState.cold()
    out: dict[str, object] = {
        "total_gbps": columns.point_total_gbps(row),
        "streams": [
            {
                "gbps": columns.gbps[j],
                "solo_gbps": columns.solo_gbps[j],
                "notes": list(columns.stream_notes[j]),
            }
            for j in range(lo, hi)
        ],
        "warm_pairs": sorted(list(pair) for pair in directory.warm_pairs),
    }
    if include_counters:
        payload: dict[str, object] = dict(columns.point_counters(row))
        payload["notes"] = list(columns.counter_notes[row])
        out["counters"] = payload
    return out


def encode_recommendation(rec: "Recommendation") -> dict[str, object]:
    """The wire payload for an advisor recommendation."""
    return {
        "read_threads": rec.read_threads,
        "write_threads": rec.write_threads,
        "read_access_size": rec.read_access_size,
        "write_access_size": rec.write_access_size,
        "layout": rec.layout.value,
        "pinning": rec.pinning.value,
        "dax_mode": rec.dax_mode.value,
        "stripe_across_sockets": rec.stripe_across_sockets,
        "replicate_small_tables": rec.replicate_small_tables,
        "serialize_read_write_phases": rec.serialize_read_write_phases,
        "expected_read_gbps": rec.expected_read_gbps,
        "expected_write_gbps": rec.expected_write_gbps,
        "practices": list(rec.practices),
        "rationale": list(rec.rationale),
    }


# ----------------------------------------------------------------------
# response framing
# ----------------------------------------------------------------------


def ok_response(request_id: object, kind: str, result: object) -> dict[str, object]:
    """A success response frame for request ``request_id``."""
    return {"id": request_id, "ok": True, "kind": kind, "result": result}


def error_response(request_id: object, exc: Exception) -> dict[str, object]:
    """A failure response frame.

    :class:`ServeError` keeps its code and retry hint; anything else is
    reported as an ``evaluation`` failure with the exception text (never
    a traceback — the wire is for answers, logs are for debugging).
    """
    if isinstance(exc, ServeError):
        error: dict[str, object] = {"code": exc.code, "message": str(exc)}
        if exc.retry_after_seconds is not None:
            error["retry_after_seconds"] = exc.retry_after_seconds
    else:
        error = {"code": "evaluation", "message": str(exc)}
    return {"id": request_id, "ok": False, "error": error}


def dump_line(obj: Mapping[str, object]) -> bytes:
    """Serialize one frame: compact JSON, UTF-8, trailing newline."""
    return json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"
