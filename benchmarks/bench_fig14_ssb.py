"""Benchmark: regenerate Figure 14 (SSB on PMEM vs DRAM, both engines)."""

from benchmarks.conftest import attach
from repro.experiments.fig14 import run
from repro.ssb.engine import SsbExecutor
from repro.ssb.hashindex import ChainedIndex, DashIndex
from repro.ssb.queries import ALL_QUERIES
from repro.ssb.runner import average_slowdown
from repro.ssb.storage import HANDCRAFTED_PMEM, HYRISE_PMEM


def test_fig14_ssb(benchmark, ssb_runner, monkeypatch):
    result = benchmark.pedantic(
        run, kwargs={"runner": ssb_runner}, rounds=1, iterations=1
    )
    attach(benchmark, result)
    hyrise = result.series_values("a-hyrise/pmem")
    handcrafted = result.series_values("b-handcrafted/pmem")
    benchmark.extra_info["hyrise_pmem_seconds"] = hyrise
    benchmark.extra_info["handcrafted_pmem_seconds"] = handcrafted
    # The aware implementation must beat the unaware one on PMEM.
    fb = ssb_runner.figure14b()
    fa = ssb_runner.figure14a()
    assert average_slowdown(fa["pmem"], fa["dram"]) > 1.7 * average_slowdown(
        fb["pmem"], fb["dram"]
    )

    # Keys handed to the hash indexes by one executor running all 13
    # queries, summed over Dash and chained bulk probes.
    probed = [0]
    for cls in (DashIndex, ChainedIndex):
        def counting(index, keys, missing=-1, _original=cls.bulk_probe):
            probed[0] += len(keys)
            return _original(index, keys, missing)

        monkeypatch.setattr(cls, "bulk_probe", counting)
    keys_per_executor = {}
    for engine, profile in (("hyrise", HYRISE_PMEM), ("handcrafted", HANDCRAFTED_PMEM)):
        probed[0] = 0
        executor = SsbExecutor(ssb_runner.db, profile)
        for query in ALL_QUERIES:
            executor.execute(query)
        keys_per_executor[engine] = probed[0]
    benchmark.extra_info["probed_keys_per_executor"] = keys_per_executor
