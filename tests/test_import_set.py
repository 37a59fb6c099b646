"""Which ``repro`` modules a command loads, pinned in a fresh interpreter.

The package entry points ``repro`` and ``repro.core`` resolve some
re-exports on first use, so a command pays at start-up only for the
modules it runs. ``repro run fig3`` must not load the advisor,
optimizer, hybrid planner or sensitivity analysis, the server, the
cluster backend, the linter or the bench harness.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent

NOT_LOADED = (
    "repro.core.advisor",
    "repro.core.hybrid",
    "repro.core.optimizer",
    "repro.core.sensitivity",
    "repro.serve",
    "repro.sweep.cluster",
    "repro.analysis",
    "repro.bench",
)

# Snapshot the loaded modules before anything below resolves a lazy name.
SCRIPT = """
import contextlib, io, json, sys
from repro.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    status = main(["run", "fig3"])
loaded = sorted(name for name in sys.modules if name.startswith("repro"))

import repro.core, repro.memsim
listed = {
    name: sorted(set(package.__all__) - set(dir(package)))
    for name, package in (("repro", repro), ("repro.core", repro.core),
                          ("repro.memsim", repro.memsim))
}
from repro import PlacementAdvisor
from repro.core.advisor import PlacementAdvisor as advisor_class
from repro.core.optimizer import tune
try:
    repro.core.nosuch
    missing = None
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({
    "status": status,
    "loaded": loaded,
    "unlisted": listed,
    "advisor": PlacementAdvisor is advisor_class,
    "tune": repro.core.tune is tune,
    "missing": missing,
}))
"""


def run_fig3_fresh() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(done.stdout)


def test_run_fig3_loads_only_what_it_runs():
    report = run_fig3_fresh()
    assert report["status"] == 0
    loaded = report["loaded"]
    assert "repro.experiments.fig03" in loaded
    unwanted = [
        name for name in loaded
        if any(name == prefix or name.startswith(prefix + ".") for prefix in NOT_LOADED)
    ]
    assert unwanted == []
    # Every public name is listed by dir() before it is first resolved.
    assert report["unlisted"] == {"repro": [], "repro.core": [], "repro.memsim": []}
    assert report["advisor"] and report["tune"]
    assert report["missing"] == "module 'repro.core' has no attribute 'nosuch'"
