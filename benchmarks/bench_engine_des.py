"""Wall-time benchmarks of the discrete-event engine, one thread group and
one mixed reader/writer run, plus its agreement with the analytic model
on a calibrated anchor."""

import pytest

from repro.memsim import evaluate, paper_config, write_stream
from repro.memsim.engine import EngineConfig, MixedEngineConfig, simulate, simulate_mixed
from repro.memsim.spec import Layout, Op
from repro.units import MIB


def test_des_write_boomerang(benchmark):
    config = EngineConfig(
        op=Op.WRITE, threads=18, access_size=4096, total_bytes=8 * MIB
    )
    result = benchmark.pedantic(simulate, args=(config,), rounds=2, iterations=1)
    benchmark.extra_info["gbps"] = round(result.gbps, 2)
    benchmark.extra_info["amplification"] = round(result.amplification, 2)
    analytic = evaluate(paper_config(), (write_stream(18),)).total_gbps
    assert result.gbps == pytest.approx(analytic, rel=0.45)


def test_des_grouped_small_reads(benchmark):
    config = EngineConfig(
        op=Op.READ, threads=36, access_size=64, layout=Layout.GROUPED,
        total_bytes=2 * MIB,
    )
    result = benchmark.pedantic(simulate, args=(config,), rounds=2, iterations=1)
    benchmark.extra_info["gbps"] = round(result.gbps, 2)
    benchmark.extra_info["amplification"] = round(result.amplification, 2)
    assert result.amplification > 1.5  # shared-line refetches emerge


def test_des_mixed_readers_and_writers(benchmark):
    config = MixedEngineConfig(read_threads=18, write_threads=6, bytes_per_side=12 * MIB)
    result = benchmark.pedantic(simulate_mixed, args=(config,), rounds=2, iterations=1)
    benchmark.extra_info["read_gbps"] = round(result.read_gbps, 2)
    benchmark.extra_info["write_gbps"] = round(result.write_gbps, 2)
    assert result.read_gbps > 0 and result.write_gbps > 0
