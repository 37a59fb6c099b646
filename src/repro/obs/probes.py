"""Emission helpers: translate simulator internals into catalogue counters.

The analytic core and the DES engine call these helpers — behind an
``if recorder.enabled`` guard — instead of scattering counter names
through model code. Keeping every name in one module (and every name in
:mod:`repro.obs.catalog`) is what lets the golden tests assert that the
emitted vocabulary is complete and simlint-clean.

Byte-accounting identity
------------------------
Per PMEM DIMM the probes maintain, exactly and by construction::

    issued_bytes == served_bytes + dropped_bytes

``issued`` is the line-granular request volume the DIMM controller sees
(sub-line accesses request whole 256 B lines; uncombined 64 B stores are
full-line read-modify-writes), ``served`` is what the 3D-XPoint media
actually moved (application volume x the model's amplification), and
``dropped`` is the requested volume the controller's buffers absorbed —
the read buffer answering consecutive sub-line reads (§3.1) and the
write-combining buffer assembling full lines (§4.1). A negative saving
cannot occur: when amplification exceeds the naive request volume (far
writes, §4.4), ``issued`` is raised to ``served`` and ``dropped`` is 0.
"""

from __future__ import annotations

from repro.memsim.config import DirectoryState, MachineConfig
from repro.memsim.constants import CACHE_LINE, OPTANE_LINE, UPI_REQUEST_FRACTION
from repro.memsim.counters import PerfCounters
from repro.memsim.prefetcher import PrefetcherModel
from repro.memsim.spec import Layout, Pattern, StreamSpec
from repro.memsim.topology import MediaKind
from repro.obs.recorder import Recorder

#: Extra coherence traffic of a far read against a *cold* directory:
#: mapping reassignments travel the link on top of the metadata share
#: (§3.4). Warming the directory removes this term, never adds one —
#: the metamorphic suite holds the probes to that monotonicity.
COLD_REMAP_FRACTION: float = 0.10


def _pmem_line_accounting(spec: StreamSpec, read_amp: float, write_amp: float) -> tuple[float, float]:
    """Return ``(issued, served)`` line-request and media bytes for a stream."""
    volume = float(spec.total_bytes)
    if spec.is_read:
        sub_line = min(spec.access_size, OPTANE_LINE)
        naive = volume * (OPTANE_LINE / sub_line)
        served = volume * read_amp
    else:
        # Without combining, every cache-line store becomes a full-line RMW.
        naive = volume * (OPTANE_LINE / CACHE_LINE)
        served = volume * write_amp
    return max(naive, served), served


def emit_evaluation(
    recorder: Recorder,
    config: MachineConfig,
    solos: list[tuple[StreamSpec, float, float, float]],
    counters: PerfCounters,
    before: DirectoryState,
    after: DirectoryState,
) -> None:
    """Emit one analytic evaluation: per-stream, per-DIMM, and totals.

    ``solos`` carries ``(spec, achieved_gbps, read_amp, write_amp)`` per
    stream — the intermediate amplification factors the final
    :class:`~repro.memsim.counters.PerfCounters` already aggregated away.
    """
    recorder.incr("memsim.eval.calls_count")
    recorder.incr("memsim.app.read_bytes", counters.app_bytes_read)
    recorder.incr("memsim.app.write_bytes", counters.app_bytes_written)
    recorder.incr("memsim.media.read_bytes", counters.media_bytes_read)
    recorder.incr("memsim.media.write_bytes", counters.media_bytes_written)
    recorder.incr("memsim.upi.payload_bytes", counters.upi_bytes)
    recorder.incr("memsim.fault.pages_count", float(counters.page_faults))
    recorder.incr("memsim.fault.wait_seconds", counters.page_fault_seconds)
    recorder.incr(
        "memsim.directory.transitions_count",
        float(len(after.warm_pairs - before.warm_pairs)),
    )
    recorder.observe("memsim.imc.rpq_occupancy_ratio", counters.rpq_occupancy)
    recorder.observe("memsim.imc.wpq_occupancy_ratio", counters.wpq_occupancy)
    recorder.observe("memsim.upi.utilization_ratio", counters.upi_utilization)

    prefetcher = PrefetcherModel(
        config.calibration.cpu, enabled=config.prefetcher_enabled
    )
    for spec, gbps, read_amp, write_amp in solos:
        volume = float(spec.total_bytes)
        recorder.incr("memsim.eval.requests_count", volume / spec.access_size)
        recorder.observe("memsim.stream.achieved_gbps", gbps)
        if spec.far:
            coherence = volume * UPI_REQUEST_FRACTION
            if spec.is_read and not before.is_warm(
                spec.issuing_socket, spec.target_socket
            ):
                coherence += volume * COLD_REMAP_FRACTION
            recorder.incr("memsim.upi.coherence_bytes", coherence)
        if spec.is_read and spec.pattern is Pattern.SEQUENTIAL:
            lines = volume / CACHE_LINE
            issued_lines = lines if config.prefetcher_enabled else 0.0
            if spec.layout is Layout.GROUPED:
                useful = issued_lines * prefetcher.grouped_sequential_factor(
                    spec.access_size
                )
            else:
                useful = issued_lines
            recorder.incr("memsim.prefetch.issued_count", issued_lines)
            recorder.incr("memsim.prefetch.useful_count", useful)
        if spec.media is not MediaKind.PMEM:
            continue
        issued, served = _pmem_line_accounting(spec, read_amp, write_amp)
        dropped = issued - served
        if spec.is_read:
            recorder.incr("memsim.read_buffer.hit_bytes", dropped)
            recorder.incr("memsim.read_buffer.miss_bytes", served)
        else:
            recorder.incr("memsim.wc.hit_count", dropped / OPTANE_LINE)
            recorder.incr("memsim.wc.miss_count", served / OPTANE_LINE)
        ways = config.topology.interleave_ways(spec.target_socket, MediaKind.PMEM)
        per_issued = issued / ways
        per_served = served / ways
        per_dropped = per_issued - per_served
        for dimm in range(ways):
            prefix = f"memsim.dimm.s{spec.target_socket}.d{dimm}"
            recorder.incr(f"{prefix}.issued_bytes", per_issued)
            recorder.incr(f"{prefix}.served_bytes", per_served)
            recorder.incr(f"{prefix}.dropped_bytes", per_dropped)


def emit_vector_fallback(recorder: Recorder, reason: str) -> None:
    """Emit one grid point's fall-back from the batched kernel.

    ``reason`` is a :data:`repro.memsim.kernels.FALLBACK_REASONS` label
    (the :func:`~repro.memsim.kernels.classify_point` verdict). The
    aggregate counter tracks the residual scalar fraction of a sweep;
    the per-reason family says why each point was unpriceable.
    """
    if not recorder.enabled:
        return
    recorder.incr("sweep.vector.fallback_count")
    recorder.incr(f"sweep.vector.fallback.{reason}_count")


def emit_engine(
    recorder: Recorder,
    per_dimm: list[tuple[int, int, int, int, int, int, int]],
    ops: int,
    bytes_moved: int,
    media_bytes: float,
) -> None:
    """Emit one DES-engine replay.

    ``per_dimm`` rows are ``(issued_bytes, served_bytes, dropped_bytes,
    buffer_hit_lines, buffer_miss_lines, wc_hit_ops, wc_miss_ops)`` —
    integer tallies the engine accumulates on its DIMM servers. Here
    ``served`` is the application volume that went through the media
    queue and ``dropped`` the volume the line buffer answered, so the
    ``issued == served + dropped`` identity is exact integer arithmetic;
    media-side amplification is reported via ``engine.media.moved_bytes``.
    """
    recorder.incr("engine.requests_count", float(ops))
    recorder.incr("engine.app.moved_bytes", float(bytes_moved))
    recorder.incr("engine.media.moved_bytes", media_bytes)
    for index, row in enumerate(per_dimm):
        issued, served, dropped, buf_hits, buf_misses, wc_hits, wc_misses = row
        prefix = f"engine.dimm.d{index}"
        recorder.incr(f"{prefix}.issued_bytes", float(issued))
        recorder.incr(f"{prefix}.served_bytes", float(served))
        recorder.incr(f"{prefix}.dropped_bytes", float(dropped))
        recorder.incr("engine.read_buffer.hits_count", float(buf_hits))
        recorder.incr("engine.read_buffer.misses_count", float(buf_misses))
        recorder.incr("engine.wc.hits_count", float(wc_hits))
        recorder.incr("engine.wc.misses_count", float(wc_misses))
