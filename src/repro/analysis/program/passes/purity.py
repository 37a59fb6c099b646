"""SIM201: mutation of shared state reachable from a purity root.

The repo's correctness story leans on :func:`repro.memsim.evaluation.
evaluate` being a pure function of ``(config, directory, spec)``: the
memo cache replays results by digest, the cluster assumes workers
are interchangeable, and the bit-identity tests compare backends point
by point. Those tests *sample* purity; this pass proves the static half
of it: no function reachable from a purity root writes module-level or
nonlocal state, prints, or touches the filesystem.

What counts as an escape is deliberately narrow — the facts recorded by
:class:`~repro.analysis.program.summary.FunctionSummary.effects`:
``global``/``nonlocal`` rebinding, writes *into* module-level bindings
(attribute/subscript stores, mutator-method calls, ``setattr``), writes
to stdout, and filesystem writes. Mutating ``self`` or a parameter is
*not* flagged: ``_Evaluator`` mutates itself freely while ``evaluate``
stays pure from the outside, and flagging it would teach people to
ignore the rule.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.analysis.finding import Finding, Rule
from repro.analysis.registry import register_program

RULE = Rule(
    code="SIM201",
    name="purity-escape",
    summary="function reachable from a purity root mutates shared state",
)

#: Human phrasing per effect kind, leading the finding message.
_KIND_LABEL = {
    "global-write": "rebinds global state",
    "module-mutation": "mutates module-level state",
    "io-write": "writes to the filesystem",
    "stdout": "writes to stdout",
}


def _witness(path: tuple[str, ...]) -> str:
    """Render a BFS call chain compactly (roots can be deep)."""
    if len(path) <= 4:
        return " -> ".join(path)
    return " -> ".join((*path[:2], "...", *path[-2:]))


@register_program(RULE)
def check_purity(program) -> Iterable[Finding]:
    roots = program.config.purity_roots
    if not roots:
        return
    reachable = program.reachable_from(tuple(roots))
    for full in sorted(reachable):
        ref = program.functions[full]
        path = reachable[full]
        for effect in ref.summary.effects:
            label = _KIND_LABEL.get(effect.kind, effect.kind)
            yield program.finding(
                RULE, ref.module, effect.line, effect.col,
                f"'{full}' {label} ({effect.detail}) but is reachable "
                f"from a purity root: {_witness(path)}",
            )
