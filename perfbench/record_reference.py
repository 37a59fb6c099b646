"""Record the digests ``reproduce`` checks its results against.

Runs the 13 seed-independent experiments exactly as ``repro run`` does,
and fig14 and table1 once per SSB seed, and writes one digest per
experiment (and per seed for the SSB pair) to ``perfbench/reference.json``.
The SSB seeds are 0-127 and 2021 (``repro run``'s own); a run of the
benchmark at any other seed checks fig14 and table1 only against its own
first iteration, and says so. Run from the repository root after a change
that is meant to alter results (about 8 minutes on two cores)::

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.experiments.registry import all_experiment_ids, run_experiment  # noqa: E402
from repro.sweep import EvaluationService, set_default_service  # noqa: E402
from workloads import (  # noqa: E402
    REFERENCE,
    SSB_EXPERIMENTS,
    paper_log_error,
    result_digest,
    ssb_runner,
)

SEEDS = (*range(128), 2021)
#: Processes recording SSB seeds side by side.
JOBS = 2


def _ssb_digests(seed: int) -> dict[str, str]:
    return {
        exp_id: result_digest(run_experiment(exp_id, runner=ssb_runner(seed)))
        for exp_id in SSB_EXPERIMENTS
    }


def main() -> int:
    previous = set_default_service(EvaluationService())
    try:
        results = {
            exp_id: run_experiment(exp_id)
            for exp_id in all_experiment_ids()
            if exp_id not in SSB_EXPERIMENTS
        }
    finally:
        set_default_service(previous)
    with ProcessPoolExecutor(max_workers=JOBS) as pool:
        ssb = dict(zip((str(s) for s in SEEDS), pool.map(_ssb_digests, SEEDS)))
    reference = {
        "paper_log_error_bandwidth": paper_log_error(list(results.values())),
        "experiments": {exp_id: result_digest(r) for exp_id, r in results.items()},
        "ssb": ssb,
    }
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}: {len(results)} experiments, SSB digests at {len(ssb)} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
