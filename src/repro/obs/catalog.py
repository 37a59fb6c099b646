"""Counter catalogue: the naming convention and the known-name registry.

Every counter and histogram name in the repository follows one
convention, enforced statically by simlint rule SIM104 and dynamically
by :func:`validate_name`:

* dotted ``lower_snake`` segments (``memsim.wc.hit_count``), at least
  two segments;
* the last segment carries a unit suffix from :data:`UNIT_SUFFIXES` —
  ``_bytes``, ``_count``, ``_seconds``, ``_ratio`` (0..1), ``_gbps``
  (decimal GB/s).

The catalogue maps each name — or a pattern with ``*`` placeholder
segments for per-DIMM families — to its unit and meaning, so reports
can label values and tests can assert that everything the probes emit
is documented.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

#: Allowed unit suffixes for the final name segment. ``ratio`` values
#: are fractions in 0..1; ``gbps`` is decimal GB/s; ``seconds``/``bytes``
#: are SI seconds and bytes; ``count`` is a plain tally.
UNIT_SUFFIXES: tuple[str, ...] = ("bytes", "count", "seconds", "ratio", "gbps")

_SEGMENT_RE = re.compile(r"^[a-z][a-z0-9_]*$")


def validate_name(name: str) -> str | None:
    """Check ``name`` against the convention; return a reason or ``None``.

    A ``None`` return means the name is valid. The same logic backs the
    SIM104 static rule, so runtime-constructed names (per-DIMM families)
    get the identical check in tests.
    """
    segments = name.split(".")
    if len(segments) < 2:
        return "needs at least two dotted segments (subsystem.metric)"
    for segment in segments:
        if not _SEGMENT_RE.match(segment):
            return f"segment {segment!r} is not lower_snake"
    last = segments[-1]
    if not any(last == suffix or last.endswith(f"_{suffix}") for suffix in UNIT_SUFFIXES):
        return (
            f"last segment {last!r} lacks a unit suffix "
            f"({', '.join(UNIT_SUFFIXES)})"
        )
    return None


@dataclass(frozen=True)
class CounterSpec:
    """One catalogue entry: a name (or ``*``-pattern) with unit and meaning."""

    pattern: str
    unit: str
    description: str

    def matches(self, name: str) -> bool:
        own = self.pattern.split(".")
        other = name.split(".")
        if len(own) != len(other):
            return False
        return all(p in ("*", s) for p, s in zip(own, other))


#: Every counter/histogram name the probes emit. ``*`` segments stand for
#: runtime indices (socket and DIMM numbers).
CATALOG: tuple[CounterSpec, ...] = (
    # -- analytic evaluation core (repro.memsim.evaluation) -------------
    CounterSpec("memsim.eval.calls_count", "count", "evaluate() invocations"),
    CounterSpec("memsim.eval.requests_count", "count", "application-level accesses issued"),
    CounterSpec("memsim.app.read_bytes", "bytes", "application read volume"),
    CounterSpec("memsim.app.write_bytes", "bytes", "application write volume"),
    CounterSpec("memsim.media.read_bytes", "bytes", "media-internal read volume (incl. amplification)"),
    CounterSpec("memsim.media.write_bytes", "bytes", "media-internal write volume (incl. amplification)"),
    CounterSpec("memsim.upi.payload_bytes", "bytes", "payload crossing the UPI"),
    CounterSpec("memsim.upi.coherence_bytes", "bytes", "directory/metadata traffic on the UPI"),
    CounterSpec("memsim.directory.transitions_count", "count", "cold->warm pair transitions this evaluation"),
    CounterSpec("memsim.fault.pages_count", "count", "first-touch page faults (fsdax)"),
    CounterSpec("memsim.fault.wait_seconds", "seconds", "time spent fault handling"),
    CounterSpec("memsim.prefetch.issued_count", "count", "cache lines the L2 prefetcher requested"),
    CounterSpec("memsim.prefetch.useful_count", "count", "prefetched lines the stream consumed"),
    CounterSpec("memsim.wc.hit_count", "count", "media lines assembled fully in the combining buffer"),
    CounterSpec("memsim.wc.miss_count", "count", "media lines written via partial-line RMW"),
    CounterSpec("memsim.read_buffer.hit_bytes", "bytes", "read bytes served from the 256 B buffer"),
    CounterSpec("memsim.read_buffer.miss_bytes", "bytes", "read bytes that reached the 3D-XPoint media"),
    CounterSpec("memsim.dimm.*.*.issued_bytes", "bytes", "line-granular bytes requested of one DIMM"),
    CounterSpec("memsim.dimm.*.*.served_bytes", "bytes", "bytes the DIMM's media actually moved"),
    CounterSpec("memsim.dimm.*.*.dropped_bytes", "bytes", "requested bytes absorbed by DIMM buffers"),
    CounterSpec("memsim.imc.rpq_occupancy_ratio", "ratio", "read pending queue occupancy"),
    CounterSpec("memsim.imc.wpq_occupancy_ratio", "ratio", "write pending queue occupancy"),
    CounterSpec("memsim.upi.utilization_ratio", "ratio", "most-loaded UPI direction utilization"),
    CounterSpec("memsim.stream.achieved_gbps", "gbps", "per-stream achieved bandwidth"),
    # -- discrete-event engine (repro.memsim.engine) ---------------------
    CounterSpec("engine.requests_count", "count", "trace operations replayed"),
    CounterSpec("engine.app.moved_bytes", "bytes", "application bytes the replay completed"),
    CounterSpec("engine.media.moved_bytes", "bytes", "media bytes the replay caused"),
    CounterSpec("engine.read_buffer.hits_count", "count", "media lines served from a DIMM line buffer"),
    CounterSpec("engine.read_buffer.misses_count", "count", "media lines fetched from media"),
    CounterSpec("engine.wc.hits_count", "count", "write fragments combined at full efficiency"),
    CounterSpec("engine.wc.misses_count", "count", "write fragments that paid combining pressure"),
    CounterSpec("engine.dimm.*.issued_bytes", "bytes", "bytes requested of one DIMM server"),
    CounterSpec("engine.dimm.*.served_bytes", "bytes", "bytes served through the DIMM's media queue"),
    CounterSpec("engine.dimm.*.dropped_bytes", "bytes", "bytes answered by the line buffer"),
    # -- sweep service / runner (repro.sweep) ----------------------------
    CounterSpec("sweep.cache.hits_count", "count", "evaluations served from a cache"),
    CounterSpec("sweep.cache.misses_count", "count", "evaluations actually computed"),
    CounterSpec("sweep.cache.disk_hits_count", "count", "cache hits served from disk"),
    CounterSpec("sweep.points_count", "count", "sweep points evaluated"),
    CounterSpec("sweep.batch.wall_seconds", "seconds", "wall time per evaluated sweep batch or cluster work item"),
    CounterSpec("sweep.vector.fallback_count", "count", "grid points that fell back to the scalar evaluator"),
    CounterSpec("sweep.vector.fallback.empty_count", "count", "fallbacks because the point had no streams"),
    CounterSpec("sweep.vector.fallback.socket_count", "count", "fallbacks because a stream named an unknown or core-less socket"),
    CounterSpec("sweep.vector.fallback.media_count", "count", "fallbacks because the target socket lacks the stream's media"),
    # -- cluster sweep backend (repro.sweep.cluster) ---------------------
    CounterSpec("cluster.workers_count", "count", "workers that joined the sweep"),
    CounterSpec("cluster.chunks.shipped_count", "count", "point chunks shipped to workers"),
    CounterSpec("cluster.chunks.stolen_count", "count", "chunks re-formed from stolen work"),
    CounterSpec("cluster.chunks.requeued_count", "count", "chunks requeued from dead workers"),
    CounterSpec("cluster.heartbeats_count", "count", "worker heartbeat frames received"),
    CounterSpec("cluster.worker.wall_seconds", "seconds", "wall time per worker result frame"),
    # -- serving layer (repro.serve) -------------------------------------
    CounterSpec("serve.requests_count", "count", "request frames dispatched"),
    CounterSpec("serve.shed_count", "count", "requests rejected by admission control"),
    CounterSpec("serve.deadline.expired_count", "count", "requests expired while queued"),
    CounterSpec("serve.errors_count", "count", "requests whose evaluation failed"),
    CounterSpec("serve.dedup.joined_count", "count", "requests repeating an earlier request's key in a window"),
    CounterSpec("serve.coalesce.batches_count", "count", "coalesced batches dispatched"),
    CounterSpec("serve.coalesce.batch_size_count", "count", "requests per coalesced batch, repeats included"),
    CounterSpec("serve.queue.depth_count", "count", "gather-queue depth at admission"),
    CounterSpec("serve.latency.wall_seconds", "seconds", "request wall time, admission to answer"),
    CounterSpec("serve.protocol.drops_count", "count", "connections dropped for protocol violations"),
    # -- SSB cost model / executor (repro.ssb) ---------------------------
    CounterSpec("ssb.scan.read_bytes", "bytes", "sequential scan volume priced"),
    CounterSpec("ssb.probe.requests_count", "count", "random index probes priced"),
    CounterSpec("ssb.probe.read_bytes", "bytes", "bytes fetched by random probes"),
    CounterSpec("ssb.intermediate.write_bytes", "bytes", "materialised intermediate volume"),
    CounterSpec("ssb.cpu.tuples_count", "count", "weighted tuples of CPU work priced"),
    CounterSpec("ssb.query.predicted_seconds", "seconds", "predicted query runtime"),
    CounterSpec("ssb.exec.queries_count", "count", "queries executed for real"),
    CounterSpec("ssb.exec.seq_read_bytes", "bytes", "recorded sequential read traffic"),
    CounterSpec("ssb.exec.random_requests_count", "count", "recorded random reads"),
    CounterSpec("ssb.exec.write_bytes", "bytes", "recorded write traffic"),
)


def describe(name: str) -> CounterSpec | None:
    """The catalogue entry covering ``name``, or ``None`` if uncatalogued."""
    for spec in CATALOG:
        if spec.matches(name):
            return spec
    return None
