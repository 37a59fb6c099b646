"""Ablation: Optane's write-combining buffer on vs. off.

A what-if the real hardware cannot run: without combining, every 64 B
store is a 256 B read-modify-write and even the paper-recommended
configurations collapse. Quantifies how much of PMEM's usable write
bandwidth the buffer is responsible for.
"""

from repro.memsim import MachineConfig, evaluate, write_stream


def _study():
    on = MachineConfig(write_combining_enabled=True)
    off = MachineConfig(write_combining_enabled=False)
    best, log_append = write_stream(4), write_stream(36, access_size=256)
    return {
        "best_config_on": evaluate(on, (best,)).total_gbps,
        "best_config_off": evaluate(off, (best,)).total_gbps,
        "log_append_on": evaluate(on, (log_append,)).total_gbps,
        "log_append_off": evaluate(off, (log_append,)).total_gbps,
    }


def test_write_combining_ablation(benchmark):
    values = benchmark(_study)
    benchmark.extra_info.update({k: round(v, 2) for k, v in values.items()})
    assert values["best_config_off"] < 0.5 * values["best_config_on"]
    assert values["log_append_off"] < 0.5 * values["log_append_on"]
