"""Pinned hit/miss tallies of the default evaluation service.

Each entry point below runs against a fresh process-wide
:class:`EvaluationService`, and the test asserts the exact hit/miss
counts it leaves behind. The tallies are a fingerprint of the request
stream: they change if an entry point adds, drops, reorders or re-keys
an evaluation (different streams, or a different observable directory
state). Refactors of the callers must keep them unchanged.
"""

import pytest

from repro.core import practices_report, verify_all
from repro.experiments.registry import all_experiment_ids, run_experiment
from repro.sweep import EvaluationService, set_default_service

#: The SSB experiments price through the same service but depend on the
#: SSB generator; the pinned stream covers the 13 bandwidth experiments.
_SSB = ("fig14", "table1")


def _bandwidth_experiments() -> None:
    for exp_id in all_experiment_ids():
        if exp_id not in _SSB:
            run_experiment(exp_id)


@pytest.mark.parametrize(
    "entry, hits, misses",
    [
        (verify_all, 6, 53),
        (practices_report, 7, 54),
        (_bandwidth_experiments, 172, 923),
    ],
    ids=["verify_all", "practices_report", "bandwidth_experiments"],
)
def test_request_stream_tallies(entry, hits, misses):
    service = EvaluationService()
    previous = set_default_service(service)
    try:
        entry()
    finally:
        set_default_service(previous)
    assert (service.stats.hits, service.stats.misses) == (hits, misses)
