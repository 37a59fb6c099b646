"""``repro.serve``: the asyncio front door over the evaluation service.

The serving layer (ROADMAP item 1) turns many small concurrent
requests into few large columnar kernel calls:

* :mod:`repro.serve.protocol` — newline-delimited JSON frames and the
  byte-exact result encodings;
* :mod:`repro.serve.server` — :class:`BandwidthServer`: gather-window
  request coalescing into batches of the memoized
  :class:`~repro.sweep.service.EvaluationService` (which answers an
  in-window repeat as a memo hit), admission control with load
  shedding, and a TCP transport;
* :mod:`repro.serve.client` — a pipelining TCP client and the one-shot
  :func:`request_once` helper.

See README "Serving" and DESIGN.md for the coalescing design and why
cache keys are unchanged by batching.
"""

from repro.serve.client import ServeClient, request_once
from repro.serve.protocol import PROTOCOL, Request, decode_request, encode_result
from repro.serve.server import BandwidthServer, ServeConfig, ServeStats

__all__ = [
    "PROTOCOL",
    "BandwidthServer",
    "Request",
    "ServeClient",
    "ServeConfig",
    "ServeStats",
    "decode_request",
    "encode_result",
    "request_once",
]
