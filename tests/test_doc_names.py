"""Every ``repro.…`` name the prose documents cite still exists.

A backticked dotted name (```repro.memsim.evaluation```, or a call such
as ```repro.sweep.stream_gbps(...)```) in README.md, DESIGN.md or
EXPERIMENTS.md must resolve: the longest importable module prefix is
imported and the rest is looked up with ``getattr``. Deleting a module
or a function then fails here until the documents stop naming it.
"""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)[`(]")


def cited_names() -> set[str]:
    return {
        name
        for document in DOCUMENTS
        for name in NAME.findall((ROOT / document).read_text(encoding="utf-8"))
    }


def resolves(name: str) -> bool:
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            target = importlib.import_module(module_name)
        except ModuleNotFoundError as exc:
            if f"{module_name}.".startswith(f"{exc.name}."):
                continue
            raise
        for attribute in parts[split:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def test_every_cited_repro_name_resolves():
    names = cited_names()
    assert len(names) > 40, "the name pattern no longer matches the documents"
    assert sorted(name for name in names if not resolves(name)) == []
