"""Project symbol table: one summary per module.

:func:`summarize` reduces a parsed :class:`~repro.analysis.lint.engine.SourceFile`
to a :class:`ModuleSummary` — everything the interprocedural layer needs
and nothing that requires re-parsing:

* symbols: module-level functions, classes (with base names and methods),
  import bindings (``local name -> dotted target``), the literal
  ``__all__`` with its line and the names bound at top level (for RL008
  and RL012),
* call descriptors per function (direct names, dotted attribute chains,
  bare-attribute method calls, and function references passed as call
  arguments — ``functools.partial`` and callback registration fall out of
  the last form),
* direct effect sites (see :mod:`repro.analysis.lint.effects`), classified
  after resolving names and dotted chains through the import bindings and
  already filtered against sanctioning waivers,
* the TLV registry constants and ``TlvTypes.X`` references (for RL007),
* every identifier the module mentions, except the imports of a package
  ``__init__``, and the names in each def's annotations and in each
  class's field annotations (for the RL012 dead-export scan).

Each module is parsed once; the project phase (call graph, effect
fixpoint, cross-module rules) runs from the summaries alone and never
re-opens an AST.

Nested functions and lambdas are folded into their enclosing module-level
function or method: defining a closure counts as (potentially) running
it.  That over-approximates — the price of keeping the graph first-order
— and is the conservative direction for effect analysis.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.lint.engine import SourceFile, Waiver, dotted_name, norm_path
from repro.analysis.lint.effects import (
    AMBIENT_ENTROPY,
    BLOCKS,
    SET_ITERATION,
    WALL_CLOCK,
    WIRE_DECODE,
    EffectSite,
    classify_attribute,
    classify_call,
    classify_import,
    classify_iteration,
)

__all__ = [
    "MODULE_KEY",
    "RULE_FOR_EFFECT",
    "ModuleSummary",
    "summarize",
]

#: Pseudo-function holding module-level (import-time) code.
MODULE_KEY = "<module>"

#: The rule that owns each effect, and that a sanctioning waiver on the
#: sink line must name to stop it there (``allow[RL009]`` on a sleep).
RULE_FOR_EFFECT: dict[str, str] = {
    BLOCKS: "RL009",
    WALL_CLOCK: "RL010",
    AMBIENT_ENTROPY: "RL010",
    SET_ITERATION: "RL010",
    WIRE_DECODE: "RL011",
}

_TLV_REGISTRY_FILE = "/repro/ndn/tlv.py"
_TLV_REGISTRY_CLASS = "TlvTypes"


def _module_name_for_path(path: "str") -> Optional[str]:
    """Dotted module name for a source path, or ``None`` if unmappable.

    ``.../src/repro/ndn/shard.py`` -> ``repro.ndn.shard``;
    ``__init__.py`` maps to its package.
    """
    text = norm_path(path)
    if not text.endswith(".py"):
        return None
    text = text[: -len(".py")]
    if text.endswith("/__init__"):
        text = text[: -len("/__init__")]
    if "/src/" in text:
        tail = text.rsplit("/src/", 1)[1]
    elif "/repro/" in text:
        tail = "repro/" + text.rsplit("/repro/", 1)[1]
    else:
        return None
    parts = tail.split("/")
    if not parts or not all(part.isidentifier() for part in parts):
        return None
    return ".".join(parts)


class ModuleSummary:
    """Everything the project-level rules need from one module."""

    __slots__ = (
        "display",
        "path",
        "module",
        "functions",
        "classes",
        "imports",
        "star_import",
        "exports",
        "exports_line",
        "bound",
        "mentions",
        "annotations",
        "calls",
        "effect_sites",
        "sanctioned",
        "tlv_registry",
        "tlv_refs",
    )

    def __init__(self, display: str, path: str, module: Optional[str]) -> None:
        self.display = display
        self.path = path
        self.module = module
        #: local qualname ("f", "Class.method") -> def line
        self.functions: dict[str, int] = {}
        #: local class qualname -> {"line", "bases": [...], "methods": {...}}
        self.classes: dict[str, dict] = {}
        #: local binding -> dotted target
        self.imports: dict[str, str] = {}
        self.star_import = False
        #: the literal ``__all__`` (duplicates kept) and its line
        self.exports: Optional[list[str]] = None
        self.exports_line = 0
        #: names bound at module top level (filled only with ``exports``)
        self.bound: set[str] = set()
        self.mentions: set[str] = set()
        #: local function -> identifiers named in its parameter/return
        #: annotations; local class -> those named in its class-body
        #: annotated assignments (a dataclass's fields)
        self.annotations: dict[str, set[str]] = {}
        #: local function -> [call descriptor dicts]
        self.calls: dict[str, list[dict]] = {}
        #: local function -> [EffectSite]
        self.effect_sites: dict[str, list[EffectSite]] = {}
        #: sinks suppressed by an allow[RL009-011] waiver
        self.sanctioned: list[dict] = []
        self.tlv_registry: Optional[dict[str, list[int]]] = None
        self.tlv_refs: list[list] = []

    @property
    def key(self) -> str:
        """Graph namespace for this module's functions."""
        return self.module or self.path


def _bind_imports(tree: ast.Module, summary: ModuleSummary) -> None:
    """Fill the import table before the walk, so a sink is resolved even
    where its import sits below the use (or inside another function).

    An import is a mention (for RL012), except in a package ``__init__``:
    re-exporting a name there does not use it.
    """
    reexports = summary.path.endswith("/__init__.py")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    summary.imports[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    summary.imports[root] = root
                if not reexports:
                    summary.mentions.add(alias.name.split(".")[-1])
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level and summary.module:
                # Level 1 resolves to the containing package: the module
                # name itself for an __init__.py, its parent for a plain
                # module.
                drop = node.level - (1 if summary.path.endswith("/__init__.py") else 0)
                parts = summary.module.split(".")
                package = parts[: len(parts) - drop] if drop else parts
                base = ".".join(package + ([node.module] if node.module else []))
            for alias in node.names:
                if alias.name == "*":
                    summary.star_import = True
                    continue
                local = alias.asname or alias.name
                summary.imports[local] = f"{base}.{alias.name}" if base else alias.name
                if not reexports:
                    summary.mentions.add(alias.name)


class _Walker(ast.NodeVisitor):
    """One pass over a module AST collecting the summary raw material."""

    def __init__(self, summary: ModuleSummary) -> None:
        self.summary = summary
        self.current = MODULE_KEY
        self.class_stack: list[str] = []
        self.func_depth = 0

    # ------------------------------------------------------------- recording

    def _record_call(self, descriptor: dict) -> None:
        self.summary.calls.setdefault(self.current, []).append(descriptor)

    def _record_site(
        self, node: ast.AST, classified: Optional[tuple[str, str]]
    ) -> None:
        if classified is None:
            return
        effect, desc = classified
        site = EffectSite(
            effect, getattr(node, "lineno", 1), getattr(node, "col_offset", 0), desc
        )
        self.summary.effect_sites.setdefault(self.current, []).append(site)

    def _resolve(self, chain: str) -> str:
        """``chain`` with its head replaced by the import it binds, if any."""
        head, dot, rest = chain.partition(".")
        target = self.summary.imports.get(head)
        if target is None:
            return chain
        return f"{target}{dot}{rest}"

    # ------------------------------------------------------------- imports

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._record_site(node, classify_import(alias.name))

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and not node.level:
            self._record_site(node, classify_import(node.module))

    # ------------------------------------------------------------- defs

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for decorator in node.decorator_list:
            self.visit(decorator)
        for base in node.bases:
            self.visit(base)
        for keyword in node.keywords:
            self.visit(keyword.value)
        if self.func_depth == 0:
            qual = ".".join(self.class_stack + [node.name])
            self.summary.classes[qual] = {
                "line": node.lineno,
                "bases": [
                    chain
                    for chain in (dotted_name(base) for base in node.bases)
                    if chain
                ],
                "methods": {},
            }
            self.summary.annotations[qual] = _names_in(
                stmt.annotation for stmt in node.body if isinstance(stmt, ast.AnnAssign)
            )
            self.class_stack.append(node.name)
            for stmt in node.body:
                self.visit(stmt)
            self.class_stack.pop()
        else:
            for stmt in node.body:
                self.visit(stmt)

    def _visit_function(self, node) -> None:
        for decorator in node.decorator_list:
            self.visit(decorator)
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            self.visit(default)
        if self.func_depth == 0:
            qual = ".".join(self.class_stack + [node.name])
            self.summary.functions[qual] = node.lineno
            self.summary.annotations[qual] = _annotation_names(node)
            if self.class_stack:
                owner = ".".join(self.class_stack)
                self.summary.classes[owner]["methods"][node.name] = node.lineno
            previous = self.current
            self.current = qual
        else:
            previous = self.current  # nested def: fold into the enclosing node
        self.func_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        self.func_depth -= 1
        self.current = previous

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    # ------------------------------------------------------------- expressions

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        chain = dotted_name(func)
        self._record_site(
            node,
            classify_call(
                node, self._resolve(chain) if chain else None, self.summary.path
            ),
        )
        descriptor: Optional[dict] = None
        if isinstance(func, ast.Name):
            descriptor = {"kind": "name", "name": func.id}
        elif isinstance(func, ast.Attribute):
            if chain is not None:
                descriptor = {"kind": "dotted", "dotted": chain}
            else:
                descriptor = {"kind": "attr", "attr": func.attr}
        if descriptor is not None:
            descriptor["line"] = node.lineno
            descriptor["col"] = node.col_offset
            self._record_call(descriptor)
        # Function references in argument position: callback registration
        # and functools.partial targets become may-call edges.
        for value in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(value, ast.Name):
                self._record_call(
                    {
                        "kind": "refname",
                        "name": value.id,
                        "line": value.lineno,
                        "col": value.col_offset,
                    }
                )
            elif isinstance(value, ast.Attribute):
                ref = dotted_name(value)
                if ref is not None:
                    self._record_call(
                        {
                            "kind": "refdotted",
                            "dotted": ref,
                            "line": value.lineno,
                            "col": value.col_offset,
                        }
                    )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        chain = dotted_name(node)
        if chain is not None:
            self._record_site(node, classify_attribute(self._resolve(chain)))
        if (
            isinstance(node.value, ast.Name)
            and node.value.id == _TLV_REGISTRY_CLASS
        ):
            self.summary.tlv_refs.append([node.attr, node.lineno, node.col_offset])
        self.summary.mentions.add(node.attr)
        if isinstance(node.value, ast.Name):
            # The chain's head was classified as part of the chain.
            self.summary.mentions.add(node.value.id)
        else:
            self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.summary.mentions.add(node.id)
            target = self.summary.imports.get(node.id)
            if target is not None:
                self._record_site(node, classify_attribute(target))

    def visit_For(self, node: ast.For) -> None:
        self._record_site(node.iter, classify_iteration(node.iter))
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._record_site(node.iter, classify_iteration(node.iter))
        self.generic_visit(node)


def _annotation_names(node) -> set[str]:
    """Identifiers named in a def's parameter and return annotations."""
    args = node.args
    annotations = [
        arg.annotation
        for arg in args.posonlyargs + args.args + args.kwonlyargs
        + [args.vararg, args.kwarg]
        if arg is not None and arg.annotation is not None
    ]
    if node.returns is not None:
        annotations.append(node.returns)
    return _names_in(annotations)


def _names_in(annotations) -> set[str]:
    """Identifiers named in annotation expressions: every ``Name`` and the
    attribute of every ``Attribute``, inside string (forward-reference)
    annotations too."""
    names: set[str] = set()
    for annotation in annotations:
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    parsed = ast.parse(sub.value, mode="eval")
                except SyntaxError:
                    continue
                names |= _names_in([parsed.body])
    return names


def _module_exports(tree: ast.Module) -> Optional[tuple[list[str], int]]:
    """The names of a literal top-level ``__all__``, and its line."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    if isinstance(node.value, (ast.List, ast.Tuple)) and all(
                        isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                        for elt in node.value.elts
                    ):
                        return [elt.value for elt in node.value.elts], node.lineno
    return None


def _top_level_bindings(stmts: list[ast.stmt], bound: set[str]) -> set[str]:
    """Every name a module binds outside functions and classes."""
    for stmt in stmts:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                bound.update(
                    node.id
                    for node in ast.walk(target)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                )
        elif isinstance(stmt, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in stmt.names)
        elif isinstance(stmt, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in stmt.names if alias.name != "*")
        elif isinstance(stmt, (ast.If, ast.Try, ast.For, ast.While, ast.With)):
            for block in ("body", "orelse", "finalbody"):
                _top_level_bindings(getattr(stmt, block, []), bound)
            for handler in getattr(stmt, "handlers", []):
                _top_level_bindings(handler.body, bound)
    return bound


def _tlv_registry(tree: ast.Module) -> Optional[dict[str, list[int]]]:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == _TLV_REGISTRY_CLASS:
            constants: dict[str, list[int]] = {}
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and isinstance(
                    stmt.value, ast.Constant
                ) and isinstance(stmt.value.value, int):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            constants[target.id] = [stmt.value.value, stmt.lineno]
            return constants
    return None


def _waiver_at(waivers: list[Waiver], rule: str, line: int) -> Optional[Waiver]:
    for waiver in waivers:
        if waiver.target_line == line and waiver.covers(rule) and waiver.reason:
            return waiver
    return None


def summarize(module: SourceFile) -> Optional[ModuleSummary]:
    """Build the interprocedural summary for one parsed module."""
    if module.tree is None:
        return None
    summary = ModuleSummary(
        module.display, module.path, _module_name_for_path(module.path)
    )
    _bind_imports(module.tree, summary)
    walker = _Walker(summary)
    for stmt in module.tree.body:
        walker.visit(stmt)
    parsed = _module_exports(module.tree)
    if parsed is not None:
        summary.exports, summary.exports_line = parsed
        summary.bound = _top_level_bindings(module.tree.body, set())
    if summary.path.endswith(_TLV_REGISTRY_FILE):
        summary.tlv_registry = _tlv_registry(module.tree)
    # Sanctioned sinks: a site whose line is waived for the rule that owns
    # its effect stops there — no finding at the sink, nothing propagated.
    # It is recorded so the driver can surface the waiver as one used,
    # audited suppression.
    filtered: dict[str, list[EffectSite]] = {}
    for func in sorted(summary.effect_sites):
        kept: list[EffectSite] = []
        for site in summary.effect_sites[func]:
            rule = RULE_FOR_EFFECT[site.effect]
            waiver = _waiver_at(module.waivers, rule, site.line)
            if waiver is None:
                kept.append(site)
                continue
            summary.sanctioned.append(
                {
                    "line": site.line,
                    "rule": rule,
                    "desc": site.desc,
                    "reason": waiver.reason,
                    "waiver_line": waiver.line,
                }
            )
        if kept:
            filtered[func] = kept
    summary.effect_sites = filtered
    return summary
