"""Ablation: cold vs. primed coherence directory for far reads (§3.4).

The paper's workaround — priming far memory with a single thread before
the multi-threaded run — is reproduced: one cheap touch removes the 5x
first-run penalty.
"""

from repro.memsim import DirectoryState, evaluate, paper_config, read_stream


def _study():
    config = paper_config()
    far = (read_stream(18, target_socket=1),)
    cold = evaluate(config, far, DirectoryState.cold()).total_gbps

    # Single-threaded priming pass, then the measured run.
    priming = evaluate(
        config, (read_stream(1, target_socket=1),), DirectoryState.cold()
    )
    primed = evaluate(config, far, priming.directory_after).total_gbps
    return {"cold_gbps": cold, "primed_gbps": primed}


def test_warm_directory_ablation(benchmark):
    values = benchmark(_study)
    benchmark.extra_info.update({k: round(v, 2) for k, v in values.items()})
    assert values["primed_gbps"] > 3 * values["cold_gbps"]
