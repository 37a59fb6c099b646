#!/usr/bin/env python3
"""Tune an ingest-while-querying system on PMEM (paper §5.1).

A warehouse ingesting data while serving scans must split its threads
between writers and readers. This example sweeps the split with the
mixed-workload model, shows the interference cliff the paper measured
(Figure 11), and finds the split that meets an ingest SLO while
maximizing scan bandwidth — then checks the paper's "serialize when you
can" advice by comparing against phase-separated execution.

Run:  python examples/mixed_workload_tuning.py
"""

from repro.memsim import evaluate, paper_config, read_stream, write_stream
from repro.units import GIB
from repro.workloads import mixed_streams


def main() -> None:
    config = paper_config()

    print("interference map (write GB/s / read GB/s):")
    read_counts = (1, 8, 18, 30)
    print("           " + "".join(f"{r:>14} rd" for r in read_counts))
    for writers in (1, 2, 4, 6):
        row = []
        for readers in read_counts:
            outcome = evaluate(config, mixed_streams(writers, readers))
            row.append(f"{outcome.write_gbps:5.1f} / {outcome.read_gbps:5.1f}")
        print(f"  {writers} wr    " + "  ".join(f"{c:>14}" for c in row))
    print()

    ingest_slo_gbps = 3.0
    best = None
    for writers in range(1, 7):
        for readers in range(1, 37 - writers):
            outcome = evaluate(config, mixed_streams(writers, readers))
            if outcome.write_gbps >= ingest_slo_gbps:
                if best is None or outcome.read_gbps > best[2].read_gbps:
                    best = (writers, readers, outcome)
    assert best is not None
    writers, readers, outcome = best
    print(
        f"to sustain {ingest_slo_gbps:.0f} GB/s of ingest, use {writers} "
        f"writers + {readers} readers: ingest {outcome.write_gbps:.1f} GB/s, "
        f"scans {outcome.read_gbps:.1f} GB/s"
    )

    # Best practice 5: avoid large mixed workloads when latency allows.
    data = 40 * GIB
    mixed_time = max(
        data / (outcome.write_gbps * 1e9), data / (outcome.read_gbps * 1e9)
    )
    write_alone = evaluate(config, [write_stream(6)]).total_gbps
    read_alone = evaluate(config, [read_stream(18)]).total_gbps
    serialized_time = data / (write_alone * 1e9) + data / (read_alone * 1e9)
    print(
        f"\nmoving 40 GiB each way: concurrent {mixed_time:.1f}s vs "
        f"serialized {serialized_time:.1f}s -> "
        + (
            "serialize (best practice 5)"
            if serialized_time < mixed_time
            else "run concurrently"
        )
    )


if __name__ == "__main__":
    main()
