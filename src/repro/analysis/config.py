"""Configuration for the simlint pass.

Configuration lives in the ``[tool.simlint]`` block of ``pyproject.toml``,
discovered by walking up from the analysis root. Every knob has a default
so the analyzer also works on a bare directory of Python files (the test
fixtures rely on this).
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from repro.errors import AnalysisError

#: Files allowed to define magic unit literals: the unit vocabulary itself,
#: the structural hardware constants, and the paper's digitised figures.
DEFAULT_UNIT_LITERAL_FILES: tuple[str, ...] = (
    "repro/units.py",
    "repro/memsim/constants.py",
    "repro/experiments/paperdata.py",
)

#: Exceptions library code may raise without going through the
#: :mod:`repro.errors` taxonomy. The taxonomy itself is always allowed;
#: these builtins cover idiomatic protocol signalling (``__getattr__``
#: raising ``AttributeError``, mappings raising ``KeyError``, ...).
DEFAULT_ALLOWED_RAISES: tuple[str, ...] = (
    "AssertionError",
    "AttributeError",
    "IndexError",
    "KeyError",
    "NotImplementedError",
    "StopIteration",
    "ZeroDivisionError",
)

#: Purity roots for SIM201: fnmatch patterns over fully-qualified function
#: names. Everything reachable from a root through the call graph must be
#: free of shared-state writes — this is the contract the memo cache, the
#: cluster backend, and the bit-identity tests all assume.
DEFAULT_PURITY_ROOTS: tuple[str, ...] = (
    "repro.memsim.evaluation.evaluate",
    "repro.memsim.kernels.*",
    "repro.memsim.context.EvalContext.*",
    "repro.memsim.context.eval_context",
    "repro.memsim.context._build_context",
)

#: Module defining the counter catalogue (``CATALOG`` of specs) that
#: SIM203 round-trips emitted names against.
DEFAULT_COUNTER_CATALOG = "repro.obs.catalog"


@dataclass(frozen=True)
class SimlintConfig:
    """Resolved simlint configuration.

    ``root`` anchors relative paths (finding paths are reported relative
    to it); it is the directory containing ``pyproject.toml`` when the
    config was loaded from one, else the analysis working directory.
    """

    root: Path = field(default_factory=Path.cwd)
    #: Default analysis targets when the CLI is given none.
    paths: tuple[str, ...] = ("src",)
    #: Path fragments to skip entirely (POSIX, substring match).
    exclude: tuple[str, ...] = ()
    #: Files (POSIX suffix match) exempt from the unit-literal rule.
    unit_literal_files: tuple[str, ...] = DEFAULT_UNIT_LITERAL_FILES
    #: Path fragments the determinism rules are confined to; empty means
    #: every analyzed file (the deterministic core is ``memsim`` + ``ssb``,
    #: but fixtures and small projects want the rules everywhere).
    determinism_paths: tuple[str, ...] = ()
    #: Path fragments the vectorization rule is confined to; empty means
    #: every analyzed file (the kernel modules here, where a scalar
    #: element-wise loop defeats the point of the batched fast paths).
    vector_paths: tuple[str, ...] = ()
    #: Path fragments the async-blocking rule (SIM109) is confined to;
    #: empty means every analyzed file (the serving layer here, where one
    #: blocking call stalls every coalesced request on the loop).
    serve_paths: tuple[str, ...] = ()
    #: Path fragments the unbounded-read rule (SIM110) is confined to;
    #: empty means every analyzed file (the wire-protocol modules here,
    #: where a reader without a frame-size bound lets one peer grow an
    #: unbounded buffer).
    transport_paths: tuple[str, ...] = ()
    #: Exception names allowed outside the ``repro.errors`` taxonomy.
    allowed_raises: tuple[str, ...] = DEFAULT_ALLOWED_RAISES
    #: Baseline file of grandfathered findings, relative to ``root``.
    baseline: str | None = None
    #: Rules (codes or names) disabled outright.
    disable: tuple[str, ...] = ()
    #: SIM201 roots (fnmatch patterns over full function names).
    purity_roots: tuple[str, ...] = DEFAULT_PURITY_ROOTS
    #: SIM203 catalogue module (dotted); empty string disables the pass.
    counter_catalog: str = DEFAULT_COUNTER_CATALOG

    def baseline_path(self) -> Path | None:
        """Absolute path of the configured baseline file, if any."""
        if self.baseline is None:
            return None
        return self.root / self.baseline

    def is_unit_literal_file(self, relpath: str) -> bool:
        """Whether ``relpath`` may define magic unit literals."""
        return any(relpath.endswith(allowed) for allowed in self.unit_literal_files)

    def in_determinism_scope(self, relpath: str) -> bool:
        """Whether the determinism rules apply to ``relpath``."""
        if not self.determinism_paths:
            return True
        return any(fragment in relpath for fragment in self.determinism_paths)

    def in_vector_scope(self, relpath: str) -> bool:
        """Whether the vectorization rule applies to ``relpath``."""
        if not self.vector_paths:
            return True
        return any(fragment in relpath for fragment in self.vector_paths)

    def in_serve_scope(self, relpath: str) -> bool:
        """Whether the async-blocking rule applies to ``relpath``."""
        if not self.serve_paths:
            return True
        return any(fragment in relpath for fragment in self.serve_paths)

    def in_transport_scope(self, relpath: str) -> bool:
        """Whether the unbounded-read rule applies to ``relpath``."""
        if not self.transport_paths:
            return True
        return any(fragment in relpath for fragment in self.transport_paths)

    def is_excluded(self, relpath: str) -> bool:
        """Whether ``relpath`` is excluded from analysis entirely."""
        return any(fragment in relpath for fragment in self.exclude)


_LIST_KEYS = {
    "paths",
    "exclude",
    "unit_literal_files",
    "determinism_paths",
    "vector_paths",
    "serve_paths",
    "transport_paths",
    "allowed_raises",
    "disable",
    "purity_roots",
}

_STR_KEYS = {"baseline", "counter_catalog"}


def _parse_block(block: dict[str, object], root: Path) -> SimlintConfig:
    known = {f.name for f in fields(SimlintConfig)} - {"root"}
    updates: dict[str, object] = {}
    for raw_key, value in block.items():
        key = raw_key.replace("-", "_")
        if key not in known:
            raise AnalysisError(
                f"unknown [tool.simlint] key {raw_key!r}; known keys: "
                f"{', '.join(sorted(known))}"
            )
        if key in _LIST_KEYS:
            if not isinstance(value, list) or not all(
                isinstance(item, str) for item in value
            ):
                raise AnalysisError(
                    f"[tool.simlint] {raw_key!r} must be a list of strings"
                )
            updates[key] = tuple(value)
        elif key in _STR_KEYS:
            if not isinstance(value, str):
                raise AnalysisError(f"[tool.simlint] {raw_key!r} must be a string")
            updates[key] = value
    return replace(SimlintConfig(root=root), **updates)


def find_pyproject(start: Path) -> Path | None:
    """Return the nearest ``pyproject.toml`` at or above ``start``."""
    start = start.resolve()
    for directory in (start, *start.parents):
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            return candidate
    return None


def load_config(start: Path | None = None, explicit: Path | None = None) -> SimlintConfig:
    """Load simlint configuration.

    ``explicit`` names a specific TOML file (the CLI's ``--config``);
    otherwise the nearest ``pyproject.toml`` above ``start`` (default: the
    current directory) is used. A missing ``[tool.simlint]`` block — or no
    pyproject at all — yields the defaults.
    """
    pyproject = explicit if explicit is not None else find_pyproject(start or Path.cwd())
    if pyproject is None:
        return SimlintConfig(root=(start or Path.cwd()).resolve())
    if not pyproject.is_file():
        raise AnalysisError(f"config file not found: {pyproject}")
    try:
        with pyproject.open("rb") as handle:
            data = tomllib.load(handle)
    except tomllib.TOMLDecodeError as exc:
        raise AnalysisError(f"could not parse {pyproject}: {exc}") from exc
    block = data.get("tool", {}).get("simlint", {})
    if not isinstance(block, dict):
        raise AnalysisError("[tool.simlint] must be a table")
    return _parse_block(block, pyproject.parent.resolve())
