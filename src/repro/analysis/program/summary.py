"""Per-module fact extraction: the :class:`ModuleSummary`.

One pass over a module's AST reduces it to a small, JSON-serialisable
record of *facts* — imports, module-level bindings, functions with their
calls, side-effect sites, counter emissions and unit-tagged arithmetic,
classes with their bases. The whole-program passes never re-visit the
AST: they combine summaries over the call graph, which is what makes the
content-hash cache (:mod:`repro.analysis.program.cache`) sound — a file
whose bytes did not change contributes exactly the same facts.

Verdicts live in the passes, not here. A recorded fact ("function ``f``
mutates module-level ``_CACHE`` at line 12") only becomes a finding if a
pass decides it matters (``f`` is reachable from a purity root).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

#: Bump when the extracted shape changes so stale cache entries are ignored.
SUMMARY_VERSION = 2

#: Mutating container/obj methods: calling one on a module-level binding
#: is a shared-state write.
MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "remove", "discard",
    "pop", "popitem", "clear", "setdefault", "sort", "reverse",
})

#: Recorder methods whose first argument is a catalogue-governed name.
EMIT_METHODS = frozenset({"incr", "observe"})

#: Identifier suffix -> unit tag. The vocabulary matches the repo's
#: naming convention (README "Units"): ``*_bytes`` holds bytes,
#: ``*_gib`` holds gibibytes, ``*_ns`` holds nanoseconds, and so on —
#: same dimension, different scale, is exactly the class of silent
#: off-by-2**30 / off-by-1e9 bug SIM204 exists to catch.
_TAG_SUFFIXES: tuple[tuple[str, str], ...] = (
    ("bytes", "bytes"),
    ("gib", "gib"),
    ("mib", "mib"),
    ("kib", "kib"),
    ("seconds", "seconds"),
    ("ns", "ns"),
    ("us", "us"),
    ("ms", "ms"),
    ("gbps", "gbps"),
)

#: Unit-constant names (from :mod:`repro.units`) acting as conversion
#: factors: multiplying by one lands in the given tag; dividing a value
#: of that tag by one lands back in the scale named by the constant.
_SCALE_CONSTANTS: dict[str, tuple[str, str]] = {
    "KIB": ("bytes", "kib"),
    "MIB": ("bytes", "mib"),
    "GIB": ("bytes", "gib"),
    "TIB": ("bytes", "tib"),
    "GB": ("bytes", "gb"),
    "NS": ("seconds", "ns"),
    "US": ("seconds", "us"),
    "MS": ("seconds", "ms"),
}

#: Unit-returning helpers from :mod:`repro.units`.
_UNIT_FUNCTIONS: dict[str, str] = {
    "gbps": "gbps",
    "seconds_for": "seconds",
    "gib": "bytes",
    "mib": "bytes",
    "kib": "bytes",
}


def tag_for_name(identifier: str) -> str | None:
    """Unit tag implied by an identifier's suffix, or ``None``."""
    lowered = identifier.lower()
    for suffix, tag in _TAG_SUFFIXES:
        if lowered == suffix or lowered.endswith(f"_{suffix}"):
            return tag
    return None


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function."""

    callee: str  # dotted form as written ("np.maximum", "self._solo", "f")
    line: int
    col: int
    #: Positional string arguments resolved to literals/patterns
    #: (``None`` per position when not statically a string).
    string_args: tuple[str | None, ...] = ()


@dataclass(frozen=True)
class EffectSite:
    """One statically-visible write to shared (non-local) state."""

    kind: str  # "global-write" | "module-mutation" | "io-write" | "stdout"
    line: int
    col: int
    detail: str


@dataclass(frozen=True)
class EmitSite:
    """One ``recorder.incr(...)`` / ``recorder.observe(...)`` call."""

    method: str
    line: int
    col: int
    #: Resolved counter name; ``*`` segments stand for runtime values.
    name: str | None = None
    #: Set when the name flows in through this parameter of the
    #: enclosing function — resolved interprocedurally by SIM203.
    param: str | None = None
    #: True when the name cannot be resolved statically at all.
    dynamic: bool = False


@dataclass(frozen=True)
class UnitMix:
    """An additive expression whose operand unit tags disagree.

    ``left``/``right`` are either concrete tags (``bytes``) or deferred
    callee references (``@call:media_seconds``) the units-flow pass
    resolves against the callee's return tag.
    """

    line: int
    col: int
    left: str
    right: str
    text: str


@dataclass(frozen=True)
class FunctionSummary:
    """Facts about one function or method."""

    qual: str  # within-module qualname: "f" or "Cls.m"
    name: str
    line: int
    col: int
    params: tuple[str, ...] = ()
    decorators: tuple[str, ...] = ()
    calls: tuple[CallSite, ...] = ()
    effects: tuple[EffectSite, ...] = ()
    emits: tuple[EmitSite, ...] = ()
    unit_mixes: tuple[UnitMix, ...] = ()
    return_tag: str | None = None


@dataclass(frozen=True)
class ClassSummary:
    """Facts about one top-level class."""

    name: str
    line: int
    col: int
    bases: tuple[str, ...] = ()


@dataclass(frozen=True)
class ModuleSummary:
    """Everything the program passes need to know about one module."""

    module: str  # dotted module name ("repro.memsim.config")
    relpath: str
    #: alias -> absolute dotted target ("np" -> "numpy",
    #: "MachineConfig" -> "repro.memsim.config.MachineConfig").
    imports: dict[str, str] = field(default_factory=dict)
    #: module-level string constants (for counter-name resolution).
    str_constants: dict[str, str] = field(default_factory=dict)
    functions: tuple[FunctionSummary, ...] = ()
    classes: tuple[ClassSummary, ...] = ()

    def to_json(self) -> dict[str, object]:
        """Serialisable form for the on-disk summary cache."""
        return {
            "version": SUMMARY_VERSION,
            "module": self.module,
            "relpath": self.relpath,
            "imports": self.imports,
            "str_constants": self.str_constants,
            "functions": [_func_to_json(f) for f in self.functions],
            "classes": [_class_to_json(c) for c in self.classes],
        }

    @classmethod
    def from_json(cls, data: dict[str, object]) -> "ModuleSummary | None":
        """Rebuild from :meth:`to_json` output; ``None`` on any mismatch."""
        try:
            if data["version"] != SUMMARY_VERSION:
                return None
            return cls(
                module=data["module"],
                relpath=data["relpath"],
                imports=dict(data["imports"]),
                str_constants=dict(data["str_constants"]),
                functions=tuple(_func_from_json(f) for f in data["functions"]),
                classes=tuple(_class_from_json(c) for c in data["classes"]),
            )
        except (KeyError, TypeError):
            return None


def _func_to_json(f: FunctionSummary) -> dict[str, object]:
    return {
        "qual": f.qual, "name": f.name, "line": f.line, "col": f.col,
        "params": list(f.params), "decorators": list(f.decorators),
        "calls": [[c.callee, c.line, c.col, list(c.string_args)] for c in f.calls],
        "effects": [[e.kind, e.line, e.col, e.detail] for e in f.effects],
        "emits": [[e.method, e.line, e.col, e.name, e.param, e.dynamic]
                  for e in f.emits],
        "unit_mixes": [[m.line, m.col, m.left, m.right, m.text]
                       for m in f.unit_mixes],
        "return_tag": f.return_tag,
    }


def _func_from_json(data: dict[str, object]) -> FunctionSummary:
    return FunctionSummary(
        qual=data["qual"], name=data["name"], line=data["line"], col=data["col"],
        params=tuple(data["params"]), decorators=tuple(data["decorators"]),
        calls=tuple(
            CallSite(callee=c[0], line=c[1], col=c[2],
                     string_args=tuple(c[3]))
            for c in data["calls"]
        ),
        effects=tuple(
            EffectSite(kind=e[0], line=e[1], col=e[2], detail=e[3])
            for e in data["effects"]
        ),
        emits=tuple(
            EmitSite(method=e[0], line=e[1], col=e[2], name=e[3],
                     param=e[4], dynamic=e[5])
            for e in data["emits"]
        ),
        unit_mixes=tuple(
            UnitMix(line=m[0], col=m[1], left=m[2], right=m[3], text=m[4])
            for m in data["unit_mixes"]
        ),
        return_tag=data["return_tag"],
    )


def _class_to_json(c: ClassSummary) -> dict[str, object]:
    return {
        "name": c.name, "line": c.line, "col": c.col, "bases": list(c.bases),
    }


def _class_from_json(data: dict[str, object]) -> ClassSummary:
    return ClassSummary(
        name=data["name"], line=data["line"], col=data["col"],
        bases=tuple(data["bases"]),
    )


# --------------------------------------------------------------------------
# extraction helpers


def _dotted(node: ast.expr) -> str | None:
    """Render ``a.b.c`` expressions; ``None`` for anything fancier."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _package_of(module: str, relpath: str) -> str:
    """The package a module's relative imports resolve against."""
    if relpath.endswith("__init__.py"):
        return module
    return module.rpartition(".")[0]


def _collect_imports(tree: ast.Module, module: str, relpath: str) -> dict[str, str]:
    imports: dict[str, str] = {}
    package = _package_of(module, relpath)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    imports[alias.asname] = alias.name
                else:
                    # ``import a.b.c`` binds ``a``; dotted usage keeps the
                    # tail, so mapping the head to itself suffices.
                    head = alias.name.split(".")[0]
                    imports[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                anchor = package
                for _ in range(node.level - 1):
                    anchor = anchor.rpartition(".")[0]
                base = anchor if node.module is None else f"{anchor}.{node.module}"
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                imports[bound] = f"{base}.{alias.name}" if base else alias.name
    return imports


class _StrResolver:
    """Resolve string-valued expressions to literals or ``*``-patterns."""

    def __init__(self, local_strs: dict[str, str | None],
                 module_strs: dict[str, str]) -> None:
        self.local_strs = local_strs
        self.module_strs = module_strs

    def resolve(self, node: ast.expr) -> str | None:
        """A literal/pattern for ``node``, or ``None`` if dynamic.

        Unresolvable *full-segment* placeholders make the whole name
        dynamic (their expansion could span any number of dotted
        segments); unresolvable placeholders embedded in literal text
        wildcard just their own segment.
        """
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            if node.id in self.local_strs:
                return self.local_strs[node.id]
            return self.module_strs.get(node.id)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            left = self.resolve(node.left)
            right = self.resolve(node.right)
            if left is not None and right is not None:
                return left + right
            return None
        if isinstance(node, ast.JoinedStr):
            return self._resolve_joined(node)
        return None

    def _resolve_joined(self, node: ast.JoinedStr) -> str | None:
        parts: list[str] = []
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                parts.append(value.value)
            elif isinstance(value, ast.FormattedValue):
                inner = self.resolve(value.value)
                if inner is not None:
                    parts.append(inner)
                else:
                    parts.append("\x00")  # unresolved placeholder
            else:
                return None
        raw = "".join(parts)
        segments = []
        for segment in raw.split("."):
            if segment == "\x00":
                return None  # full-segment placeholder: arity unknown
            segments.append("*" if "\x00" in segment else segment)
        return ".".join(segments)


# --------------------------------------------------------------------------
# unit-tag inference (the intra-function half of SIM204)


class _UnitTagger:
    """Infer unit tags for expressions inside one function."""

    def __init__(self, env: dict[str, str], imports: dict[str, str],
                 local_functions: set[str]) -> None:
        self.env = env
        self.imports = imports
        self.local_functions = local_functions
        self.mixes: list[UnitMix] = []

    def _scale_constant(self, dotted: str) -> tuple[str, str] | None:
        tail = dotted.rpartition(".")[2]
        if tail not in _SCALE_CONSTANTS:
            return None
        # Accept ``units.GIB``, a bare imported ``GIB``, or any dotted
        # path through a module named ``units``.
        head = dotted.rpartition(".")[0]
        if head:
            resolved = self.imports.get(head.split(".")[0], head)
            if "units" not in resolved and "units" not in head:
                return None
        else:
            target = self.imports.get(tail, "")
            if target and "units" not in target:
                return None
        return _SCALE_CONSTANTS[tail]

    def tag(self, node: ast.expr) -> str | None:
        """Concrete tag, ``@call:<dotted>`` deferred ref, or ``None``."""
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            return tag_for_name(node.id)
        if isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted is not None and self._scale_constant(dotted) is not None:
                return None  # a conversion factor, not a quantity
            return tag_for_name(node.attr)
        if isinstance(node, ast.UnaryOp):
            return self.tag(node.operand)
        if isinstance(node, ast.IfExp):
            body, orelse = self.tag(node.body), self.tag(node.orelse)
            return body if body == orelse else None
        if isinstance(node, ast.Call):
            return self._call_tag(node)
        if isinstance(node, ast.BinOp):
            return self._binop_tag(node)
        return None

    def _call_tag(self, node: ast.Call) -> str | None:
        dotted = _dotted(node.func)
        if dotted is None:
            return None
        tail = dotted.rpartition(".")[2]
        if tail in _UNIT_FUNCTIONS:
            return _UNIT_FUNCTIONS[tail]
        if tail in ("min", "max", "abs", "sum", "round", "float", "int"):
            # Shape-preserving builtins: tag of the first argument.
            if node.args:
                return self.tag(node.args[0])
            return None
        named = tag_for_name(tail)
        if named is not None:
            return named
        # A program-local callee: defer to its return tag (resolved by
        # the units-flow pass against the callee's summary).
        head = dotted.split(".")[0]
        if dotted in self.local_functions or head in self.imports or (
            head in ("self", "cls")
        ):
            return f"@call:{dotted}"
        return None

    def _binop_tag(self, node: ast.BinOp) -> str | None:
        left, right = self.tag(node.left), self.tag(node.right)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            if left is not None and right is not None and left != right:
                self.mixes.append(UnitMix(
                    line=node.lineno, col=node.col_offset,
                    left=left, right=right, text=ast.unparse(node),
                ))
                return None
            return left if left == right else (left or right)
        if isinstance(node.op, ast.Mult):
            for own, other_node in ((node.left, node.right),
                                    (node.right, node.left)):
                dotted = _dotted(own) if isinstance(
                    own, (ast.Name, ast.Attribute)) else None
                if dotted is not None:
                    scale = self._scale_constant(dotted)
                    if scale is not None:
                        return scale[0]  # x * GIB -> bytes, x * NS -> seconds
            if isinstance(node.left, ast.Constant):
                return right
            if isinstance(node.right, ast.Constant):
                return left
            return None
        if isinstance(node.op, (ast.Div, ast.FloorDiv)):
            dotted = _dotted(node.right) if isinstance(
                node.right, (ast.Name, ast.Attribute)) else None
            if dotted is not None:
                scale = self._scale_constant(dotted)
                if scale is not None and left == scale[0]:
                    return scale[1]  # bytes / GIB -> gib, seconds / NS -> ns
            return None
        return None


# --------------------------------------------------------------------------
# the extractor


def _local_names(func: ast.AST) -> set[str]:
    """Names bound locally inside ``func`` (assignments, loops, withs)."""
    names: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                # Only Store-context names bind: in ``d[k] = v`` or
                # ``obj.attr = v`` the base name is a Load, not a binding.
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name) and isinstance(
                        leaf.ctx, ast.Store
                    ):
                        names.add(leaf.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for leaf in ast.walk(node.target):
                if isinstance(leaf, ast.Name):
                    names.add(leaf.id)
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            for leaf in ast.walk(node.optional_vars):
                if isinstance(leaf, ast.Name):
                    names.add(leaf.id)
        elif isinstance(node, ast.comprehension):
            for leaf in ast.walk(node.target):
                if isinstance(leaf, ast.Name):
                    names.add(leaf.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
    return names


def _walk_own(func: ast.AST):
    """``ast.walk`` over a function including nested defs and lambdas.

    Nested functions share the enclosing summary: their effects and
    calls are attributed to the function that defines them, which is
    conservative for purity (defining an impure closure is treated like
    running it) and keeps the summary table flat.
    """
    yield from ast.walk(func)


class _FunctionExtractor:
    """Extract one :class:`FunctionSummary`."""

    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef,
                 qual: str, module_summary_ctx: "_ModuleCtx") -> None:
        self.func = func
        self.qual = qual
        self.ctx = module_summary_ctx

    def extract(self) -> FunctionSummary:
        func, ctx = self.func, self.ctx
        params = tuple(
            arg.arg
            for arg in (*func.args.posonlyargs, *func.args.args,
                        *func.args.kwonlyargs)
        )
        locals_ = _local_names(func)
        str_env = self._string_env(locals_)
        resolver = _StrResolver(str_env, ctx.str_constants)

        calls: list[CallSite] = []
        effects: list[EffectSite] = []
        emits: list[EmitSite] = []
        global_names = self._declared_globals()
        for node in _walk_own(func):
            if isinstance(node, ast.Call):
                self._visit_call(node, params, locals_, resolver, calls,
                                 effects, emits)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                self._visit_assign(node, params, locals_, global_names, effects)
        unit_env = self._unit_env(params, func)
        tagger = _UnitTagger(unit_env, ctx.imports, ctx.local_callables)
        self._run_units(func, tagger)
        return_tag = self._return_tag(func, tagger)
        seen_mixes: set[tuple[int, int, str]] = set()
        unit_mixes: list[UnitMix] = []
        for mix in tagger.mixes:
            key = (mix.line, mix.col, mix.text)
            if key not in seen_mixes:
                seen_mixes.add(key)
                unit_mixes.append(mix)
        return FunctionSummary(
            qual=self.qual,
            name=func.name,
            line=func.lineno,
            col=func.col_offset,
            params=params,
            decorators=tuple(
                d for d in (_dotted(dec) for dec in func.decorator_list)
                if d is not None
            ),
            calls=tuple(calls),
            effects=tuple(effects),
            emits=tuple(emits),
            unit_mixes=tuple(unit_mixes),
            return_tag=return_tag,
        )

    # -- strings -----------------------------------------------------------

    def _string_env(self, locals_: set[str]) -> dict[str, str | None]:
        """Locally-assigned string values; ambiguous names map to None."""
        assigns: dict[str, list[str | None]] = {}
        base = _StrResolver({}, self.ctx.str_constants)
        for node in _walk_own(self.func):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if isinstance(node.value, (ast.Constant, ast.JoinedStr, ast.BinOp)):
                resolved = base.resolve(node.value)
                if resolved is not None or isinstance(
                    node.value, (ast.JoinedStr,)
                ) or (isinstance(node.value, ast.Constant)
                      and isinstance(node.value.value, str)):
                    assigns.setdefault(target.id, []).append(resolved)
        env: dict[str, str | None] = {}
        for name, values in assigns.items():
            distinct = set(values)
            env[name] = values[0] if len(distinct) == 1 else None
        return {name: value for name, value in env.items() if name in locals_}

    # -- effects -----------------------------------------------------------

    def _declared_globals(self) -> set[str]:
        names: set[str] = set()
        for node in _walk_own(self.func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                names.update(node.names)
        return names

    def _shared_base(self, node: ast.expr, params: tuple[str, ...],
                     locals_: set[str]) -> str | None:
        """The module-level/imported name a write target is rooted in."""
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        name = node.id
        if name in ("self", "cls") or name in params or name in locals_:
            return None
        if name in self.ctx.module_bindings or name in self.ctx.imports:
            return name
        return None

    def _visit_assign(self, node: ast.stmt, params: tuple[str, ...],
                      locals_: set[str], global_names: set[str],
                      effects: list[EffectSite]) -> None:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id in global_names:
                effects.append(EffectSite(
                    kind="global-write", line=node.lineno,
                    col=node.col_offset,
                    detail=f"rebinds global/nonlocal '{target.id}'",
                ))
            elif isinstance(target, (ast.Attribute, ast.Subscript)):
                base = self._shared_base(target, params, locals_)
                if base is not None:
                    effects.append(EffectSite(
                        kind="module-mutation", line=node.lineno,
                        col=node.col_offset,
                        detail=f"writes into module-level '{base}'",
                    ))

    def _visit_call(self, node: ast.Call, params: tuple[str, ...],
                    locals_: set[str], resolver: _StrResolver,
                    calls: list[CallSite], effects: list[EffectSite],
                    emits: list[EmitSite]) -> None:
        dotted = _dotted(node.func)
        if dotted is not None:
            string_args = tuple(resolver.resolve(arg) for arg in node.args)
            calls.append(CallSite(
                callee=dotted, line=node.lineno, col=node.col_offset,
                string_args=string_args,
            ))
            tail = dotted.rpartition(".")[2]
            if tail in EMIT_METHODS and isinstance(node.func, ast.Attribute):
                emits.append(self._emit_site(node, tail, params, resolver))
            if tail in MUTATOR_METHODS and isinstance(node.func, ast.Attribute):
                base = self._shared_base(node.func.value, params, locals_)
                if base is not None:
                    effects.append(EffectSite(
                        kind="module-mutation", line=node.lineno,
                        col=node.col_offset,
                        detail=f"mutates module-level '{base}' via .{tail}()",
                    ))
            if dotted == "print":
                effects.append(EffectSite(
                    kind="stdout", line=node.lineno, col=node.col_offset,
                    detail="writes to stdout via print()",
                ))
            elif dotted == "setattr" and node.args:
                base = self._shared_base(node.args[0], params, locals_)
                if base is not None:
                    effects.append(EffectSite(
                        kind="module-mutation", line=node.lineno,
                        col=node.col_offset,
                        detail=f"setattr() on module-level '{base}'",
                    ))
            elif dotted == "open":
                mode = self._open_mode(node)
                if mode is not None and any(ch in mode for ch in "wax+"):
                    effects.append(EffectSite(
                        kind="io-write", line=node.lineno, col=node.col_offset,
                        detail=f"opens a file for writing (mode {mode!r})",
                    ))
            # Unambiguously-filesystem method names only: ``.touch()``,
            # ``.replace()`` and ``.rename()`` also name pure operations
            # (DirectoryState.touch, dataclasses.replace, str.replace).
            elif tail in ("write_text", "write_bytes", "unlink", "mkdir",
                          "rmdir"):
                effects.append(EffectSite(
                    kind="io-write", line=node.lineno, col=node.col_offset,
                    detail=f"filesystem write via .{tail}()",
                ))

    @staticmethod
    def _open_mode(node: ast.Call) -> str | None:
        if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
            if isinstance(node.args[1].value, str):
                return node.args[1].value
        for kw in node.keywords:
            if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
                if isinstance(kw.value.value, str):
                    return kw.value.value
        return None

    def _emit_site(self, node: ast.Call, method: str, params: tuple[str, ...],
                   resolver: _StrResolver) -> EmitSite:
        if not node.args:
            return EmitSite(method=method, line=node.lineno,
                            col=node.col_offset, dynamic=True)
        first = node.args[0]
        resolved = resolver.resolve(first)
        if resolved is not None:
            return EmitSite(method=method, line=node.lineno,
                            col=node.col_offset, name=resolved)
        if isinstance(first, ast.Name) and first.id in params:
            return EmitSite(method=method, line=node.lineno,
                            col=node.col_offset, param=first.id)
        return EmitSite(method=method, line=node.lineno, col=node.col_offset,
                        dynamic=True)

    # -- units -------------------------------------------------------------

    def _unit_env(self, params: tuple[str, ...],
                  func: ast.FunctionDef | ast.AsyncFunctionDef) -> dict[str, str]:
        env: dict[str, str] = {}
        for param in params:
            tag = tag_for_name(param)
            if tag is not None:
                env[param] = tag
        return env

    def _run_units(self, func: ast.AST, tagger: _UnitTagger) -> None:
        """Two passes: build the assignment env, then tag every additive
        expression and comparison. Nested expressions are visited more
        than once; mixes are deduplicated by position in ``extract``."""
        for node in _walk_own(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and (
                isinstance(node.targets[0], ast.Name)
            ):
                tag = tagger.tag(node.value)
                name = node.targets[0].id
                if tag is not None:
                    tagger.env[name] = tag
                else:
                    named = tag_for_name(name)
                    if named is not None:
                        tagger.env[name] = named
        for node in _walk_own(func):
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                tagger.tag(node)
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ) and isinstance(node.target, ast.Name):
                left = tagger.tag(node.target)
                right = tagger.tag(node.value)
                if left is not None and right is not None and left != right:
                    tagger.mixes.append(UnitMix(
                        line=node.lineno, col=node.col_offset,
                        left=left, right=right, text=ast.unparse(node),
                    ))
            elif isinstance(node, ast.Compare) and len(node.ops) == 1:
                left = tagger.tag(node.left)
                right = tagger.tag(node.comparators[0])
                if left is not None and right is not None and left != right:
                    tagger.mixes.append(UnitMix(
                        line=node.lineno, col=node.col_offset,
                        left=left, right=right, text=ast.unparse(node),
                    ))

    def _return_tag(self, func: ast.FunctionDef | ast.AsyncFunctionDef,
                    tagger: _UnitTagger) -> str | None:
        tags: set[str] = set()
        for node in _walk_own(func):
            if isinstance(node, ast.Return) and node.value is not None:
                tag = tagger.tag(node.value)
                if tag is not None and not tag.startswith("@call:"):
                    tags.add(tag)
        if len(tags) == 1:
            return tags.pop()
        return tag_for_name(func.name)


@dataclass
class _ModuleCtx:
    """Shared module facts the function extractor reads."""

    imports: dict[str, str]
    module_bindings: set[str]
    str_constants: dict[str, str]
    local_callables: set[str]


def module_name_for(relpath: str) -> str:
    """Dotted module name for a POSIX relpath (``src/`` layout aware)."""
    parts = relpath.split("/")
    if parts and parts[0] in ("src", "lib"):
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part)


def summarize_module(tree: ast.Module, relpath: str) -> ModuleSummary:
    """Reduce one parsed module to its :class:`ModuleSummary`."""
    module = module_name_for(relpath)
    imports = _collect_imports(tree, module, relpath)

    module_bindings: set[str] = set()
    str_constants: dict[str, str] = {}
    for stmt in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            module_bindings.add(target.id)
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                str_constants[target.id] = value.value

    local_callables = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    ctx = _ModuleCtx(
        imports=imports,
        module_bindings=module_bindings | local_callables,
        str_constants=str_constants,
        local_callables=local_callables,
    )

    functions: list[FunctionSummary] = []
    classes: list[ClassSummary] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append(
                _FunctionExtractor(node, node.name, ctx).extract()
            )
        elif isinstance(node, ast.ClassDef):
            classes.append(_summarize_class(node, ctx, functions))
    return ModuleSummary(
        module=module,
        relpath=relpath,
        imports=imports,
        str_constants=str_constants,
        functions=tuple(functions),
        classes=tuple(classes),
    )


def _summarize_class(node: ast.ClassDef, ctx: _ModuleCtx,
                     functions: list[FunctionSummary]) -> ClassSummary:
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append(
                _FunctionExtractor(stmt, f"{node.name}.{stmt.name}", ctx).extract()
            )
    return ClassSummary(
        name=node.name,
        line=node.lineno,
        col=node.col_offset,
        bases=tuple(
            b for b in (_dotted(base) for base in node.bases) if b is not None
        ),
    )
