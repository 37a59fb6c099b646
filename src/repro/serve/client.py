"""Minimal asyncio client for the :mod:`repro.serve` wire protocol.

:class:`ServeClient` speaks the newline-delimited JSON protocol over
TCP and supports pipelining: requests are tagged with generated ids and
responses are matched back by id, so callers may have many requests in
flight on one connection. :func:`request_once` is the one-shot helper
the ``repro request`` CLI uses.
"""

from __future__ import annotations

import asyncio
import json
from typing import Mapping

from repro.errors import ServeError
from repro.serve import protocol

__all__ = ["ServeClient", "request_once"]


class ServeClient:
    """One TCP connection to a :class:`~repro.serve.server.BandwidthServer`.

    Single event loop, any number of concurrent :meth:`request` calls.
    Responses arriving out of order are parked by id until their caller
    reads them.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._read_lock = asyncio.Lock()
        self._write_lock = asyncio.Lock()
        self._parked: dict[object, dict] = {}
        self._next_id = 0

    @classmethod
    async def connect(
        cls, host: str, port: int, *, max_frame_bytes: int | None = None
    ) -> "ServeClient":
        """Open a connection to a listening server.

        ``max_frame_bytes`` bounds response frames (the stream's
        ``limit``); it defaults to the server's own default so a
        legitimate full batch response always fits. Raises
        :class:`ServeError` (code ``connect``) if the connection cannot
        be opened.
        """
        if max_frame_bytes is None:
            from repro.serve.server import ServeConfig

            max_frame_bytes = ServeConfig.max_frame_bytes
        try:
            reader, writer = await asyncio.open_connection(
                host, port, limit=max_frame_bytes
            )
        except OSError as exc:
            raise ServeError(
                "connect", f"cannot connect to {host}:{port}: {exc}"
            ) from exc
        return cls(reader, writer)

    async def request(self, payload: Mapping[str, object]) -> dict:
        """Send one frame and return its response frame.

        A missing ``id`` is filled in with a connection-unique integer.
        Raises :class:`ServeError` (code ``protocol``) if the server
        closes the connection before answering, or answers with a line
        that overruns the stream limit or is not a JSON object.
        """
        frame = dict(payload)
        if frame.get("id") is None:
            self._next_id += 1
            frame["id"] = self._next_id
        request_id = frame["id"]
        async with self._write_lock:
            self._writer.write(protocol.dump_line(frame))
            await self._writer.drain()
        while True:
            parked = self._parked.pop(request_id, None)
            if parked is not None:
                return parked
            async with self._read_lock:
                # Someone else may have parked our answer while we
                # waited for the lock.
                parked = self._parked.pop(request_id, None)
                if parked is not None:
                    return parked
                try:
                    line = await self._reader.readline()
                except ValueError as exc:  # limit overrun
                    raise ServeError(
                        "protocol", "response frame exceeds the stream limit"
                    ) from exc
            if not line:
                raise ServeError("protocol", "connection closed before response")
            try:
                response = json.loads(line)
            except ValueError as exc:
                raise ServeError("protocol", f"response is not JSON: {exc}") from exc
            if not isinstance(response, dict):
                raise ServeError("protocol", "response is not a JSON object")
            if response.get("id") == request_id:
                return response
            self._parked[response.get("id")] = response

    async def close(self) -> None:
        """Close the connection (idempotent)."""
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):  # simlint: ignore[silent-except] -- already closing; the peer's RST is the expected outcome
            pass


async def request_once(host: str, port: int, payload: Mapping[str, object]) -> dict:
    """Connect, send one request, return its response, disconnect."""
    client = await ServeClient.connect(host, port)
    try:
        return await client.request(payload)
    finally:
        await client.close()
