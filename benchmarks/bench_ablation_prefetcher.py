"""Ablation: L2 hardware prefetcher on vs. off (§3.1-§3.2).

The paper tested this on real hardware: disabling the prefetcher removes
the 1-2 KB grouped-read dip, hurts low thread counts, and lets 36
hyperthreaded readers reach the 40 GB/s peak. The same switch exists on
the model.
"""

from repro.memsim import Layout, MachineConfig, evaluate, read_stream


def _study():
    on = MachineConfig(prefetcher_enabled=True)
    off = MachineConfig(prefetcher_enabled=False)
    dip = read_stream(36, access_size=1024, layout=Layout.GROUPED)
    low, ht = read_stream(4), read_stream(36)
    return {
        "dip_1k_on": evaluate(on, (dip,)).total_gbps,
        "dip_1k_off": evaluate(off, (dip,)).total_gbps,
        "low_threads_on": evaluate(on, (low,)).total_gbps,
        "low_threads_off": evaluate(off, (low,)).total_gbps,
        "ht_36_on": evaluate(on, (ht,)).total_gbps,
        "ht_36_off": evaluate(off, (ht,)).total_gbps,
    }


def test_prefetcher_ablation(benchmark):
    values = benchmark(_study)
    benchmark.extra_info.update({k: round(v, 2) for k, v in values.items()})
    # Disabling removes the dip...
    assert values["dip_1k_off"] > values["dip_1k_on"]
    # ...hurts low thread counts...
    assert values["low_threads_off"] < values["low_threads_on"]
    # ...and restores the 36-thread peak (§3.2).
    assert values["ht_36_off"] >= values["ht_36_on"]
