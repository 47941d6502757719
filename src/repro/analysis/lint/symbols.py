"""Project symbol table: one JSON-serialisable summary per module.

:func:`summarize` reduces a parsed :class:`~repro.analysis.lint.engine.SourceFile`
to a :class:`ModuleSummary` — everything the interprocedural layer needs
and nothing that requires re-parsing:

* symbols: module-level functions, classes (with base names and methods),
  import bindings (``local name -> dotted target``), ``__all__`` exports,
* call descriptors per function (direct names, dotted attribute chains,
  bare-attribute method calls, and function references passed as call
  arguments — ``functools.partial`` and callback registration fall out of
  the last form),
* direct effect sites (see :mod:`repro.analysis.lint.effects`), already
  filtered against sanctioning waivers,
* the TLV registry constants and ``TlvTypes.X`` references (for RL007),
* every identifier the module mentions (for the RL012 dead-export scan).

Summaries are plain dicts after :meth:`ModuleSummary.as_dict`, which is
what the content-hash cache persists: a warm run rebuilds the whole
project index without touching :mod:`ast` for unchanged files.

Nested functions and lambdas are folded into their enclosing module-level
function or method: defining a closure counts as (potentially) running
it.  That over-approximates — the price of keeping the graph first-order
— and is the conservative direction for effect analysis.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.lint.dataflow import analyze_function
from repro.analysis.lint.engine import SourceFile, Waiver, dotted_name, norm_path
from repro.analysis.lint.effects import (
    AMBIENT_ENTROPY,
    BLOCKS,
    EFFECT_BASE_RULE,
    DETERMINISM_DIRS,
    DETERMINISM_EXEMPT_FILES,
    FORWARDING_PLANE_FILES,
    HOT_LOOP_FILES,
    SET_ITERATION,
    WALL_CLOCK,
    WIRE_DECODE,
    EffectSite,
    classify_attribute,
    classify_call,
    classify_iteration,
)

__all__ = [
    "MODULE_KEY",
    "TRANSITIVE_RULE_FOR_EFFECT",
    "ModuleSummary",
    "module_name_for_path",
    "summarize",
]

#: Pseudo-function holding module-level (import-time) code.
MODULE_KEY = "<module>"

#: The interprocedural rule a sanctioning waiver must name to stop an
#: effect at its sink (an ``allow[RL009]`` comment on a sleep line).
TRANSITIVE_RULE_FOR_EFFECT: dict[str, str] = {
    BLOCKS: "RL009",
    WALL_CLOCK: "RL010",
    AMBIENT_ENTROPY: "RL010",
    SET_ITERATION: "RL010",
    WIRE_DECODE: "RL011",
}

_TLV_REGISTRY_FILE = "/repro/ndn/tlv.py"
_TLV_REGISTRY_CLASS = "TlvTypes"


def module_name_for_path(path: "str") -> Optional[str]:
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
        "mentions",
        "calls",
        "effect_sites",
        "sanctioned",
        "tlv_registry",
        "tlv_refs",
        "flow",
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
        self.exports: Optional[list[str]] = None
        self.mentions: set[str] = set()
        #: local function -> [call descriptor dicts]
        self.calls: dict[str, list[dict]] = {}
        #: local function -> [EffectSite]
        self.effect_sites: dict[str, list[EffectSite]] = {}
        #: sinks suppressed by an allow[RL009-011] waiver
        self.sanctioned: list[dict] = []
        self.tlv_registry: Optional[dict[str, list[int]]] = None
        self.tlv_refs: list[list] = []
        #: local function -> dataflow facts (see dataflow.analyze_function)
        self.flow: dict[str, dict] = {}

    @property
    def key(self) -> str:
        """Graph namespace for this module's functions."""
        return self.module or self.path

    def as_dict(self) -> dict:
        return {
            "display": self.display,
            "path": self.path,
            "module": self.module,
            "functions": self.functions,
            "classes": self.classes,
            "imports": self.imports,
            "star_import": self.star_import,
            "exports": self.exports,
            "mentions": sorted(self.mentions),
            "calls": self.calls,
            "effect_sites": {
                func: [site.as_dict() for site in sites]
                for func, sites in self.effect_sites.items()
            },
            "sanctioned": self.sanctioned,
            "tlv_registry": self.tlv_registry,
            "tlv_refs": self.tlv_refs,
            "flow": self.flow,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ModuleSummary":
        summary = cls(raw["display"], raw["path"], raw["module"])
        summary.functions = dict(raw["functions"])
        summary.classes = dict(raw["classes"])
        summary.imports = dict(raw["imports"])
        summary.star_import = raw["star_import"]
        summary.exports = raw["exports"]
        summary.mentions = set(raw["mentions"])
        summary.calls = dict(raw["calls"])
        summary.effect_sites = {
            func: [EffectSite.from_dict(site) for site in sites]
            for func, sites in raw["effect_sites"].items()
        }
        summary.sanctioned = list(raw["sanctioned"])
        summary.tlv_registry = raw["tlv_registry"]
        summary.tlv_refs = list(raw["tlv_refs"])
        summary.flow = dict(raw.get("flow", {}))
        return summary


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

    def _record_site(self, effect: str, node: ast.AST, desc: str) -> None:
        site = EffectSite(
            effect, getattr(node, "lineno", 1), getattr(node, "col_offset", 0), desc
        )
        self.summary.effect_sites.setdefault(self.current, []).append(site)

    # ------------------------------------------------------------- imports

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname:
                self.summary.imports[alias.asname] = alias.name
            else:
                root = alias.name.split(".")[0]
                self.summary.imports[root] = root
            self.summary.mentions.add(alias.name.split(".")[-1])

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = node.module or ""
        if node.level and self.summary.module:
            # Level 1 resolves to the containing package: the module name
            # itself for an __init__.py, its parent for a plain module.
            drop = node.level - (1 if self.summary.path.endswith("/__init__.py") else 0)
            parts = self.summary.module.split(".")
            package = parts[: len(parts) - drop] if drop else parts
            base = ".".join(package + ([node.module] if node.module else []))
        for alias in node.names:
            if alias.name == "*":
                self.summary.star_import = True
                continue
            local = alias.asname or alias.name
            self.summary.imports[local] = f"{base}.{alias.name}" if base else alias.name
            self.summary.mentions.add(alias.name)

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
        classified = classify_call(node, self.summary.path)
        if classified is not None:
            self._record_site(classified[0], node, classified[1])
        func = node.func
        descriptor: Optional[dict] = None
        if isinstance(func, ast.Name):
            descriptor = {"kind": "name", "name": func.id}
        elif isinstance(func, ast.Attribute):
            chain = dotted_name(func)
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
                chain = dotted_name(value)
                if chain is not None:
                    self._record_call(
                        {
                            "kind": "refdotted",
                            "dotted": chain,
                            "line": value.lineno,
                            "col": value.col_offset,
                        }
                    )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        chain = dotted_name(node)
        if chain is not None:
            classified = classify_attribute(chain)
            if classified is not None:
                self._record_site(classified[0], node, classified[1])
        if (
            isinstance(node.value, ast.Name)
            and node.value.id == _TLV_REGISTRY_CLASS
        ):
            self.summary.tlv_refs.append([node.attr, node.lineno, node.col_offset])
        self.summary.mentions.add(node.attr)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.summary.mentions.add(node.id)

    def visit_For(self, node: ast.For) -> None:
        classified = classify_iteration(node.iter)
        if classified is not None:
            self._record_site(classified[0], node.iter, classified[1])
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        classified = classify_iteration(node.iter)
        if classified is not None:
            self._record_site(classified[0], node.iter, classified[1])
        self.generic_visit(node)


def _module_exports(tree: ast.Module) -> Optional[list[str]]:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    if isinstance(node.value, (ast.List, ast.Tuple)) and all(
                        isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                        for elt in node.value.elts
                    ):
                        return [elt.value for elt in node.value.elts]
    return None


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


def _flow_functions(tree: ast.Module) -> list:
    """(qualname, node) pairs for module-level functions and methods,
    mirroring the ``_Walker`` qualname convention (nested defs fold)."""
    found: list = []

    def descend(body, class_stack: list[str]) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((".".join(class_stack + [node.name]), node))
            elif isinstance(node, ast.ClassDef):
                descend(node.body, class_stack + [node.name])

    descend(tree.body, [])
    return found


def _base_rule_applies(effect: str, path: str) -> bool:
    """Does the line-local owner of ``effect`` lint this path directly?"""
    if effect == BLOCKS:
        return any(path.endswith(suffix) for suffix in HOT_LOOP_FILES)
    if effect == WIRE_DECODE:
        return any(path.endswith(suffix) for suffix in FORWARDING_PLANE_FILES)
    if any(path.endswith(suffix) for suffix in DETERMINISM_EXEMPT_FILES):
        return False
    return any(marker in path for marker in DETERMINISM_DIRS)


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
        module.display, module.path, module_name_for_path(module.path)
    )
    walker = _Walker(summary)
    for stmt in module.tree.body:
        walker.visit(stmt)
    summary.exports = _module_exports(module.tree)
    if summary.path.endswith(_TLV_REGISTRY_FILE):
        summary.tlv_registry = _tlv_registry(module.tree)
    # Dataflow layer: one CFG + flow extraction per module-level function.
    # Functions with nothing to report contribute no cache weight.
    for qual, node in _flow_functions(module.tree):
        flow = analyze_function(node)
        if flow:
            summary.flow[qual] = flow
    # Sanctioned sinks: a site whose line is waived for its base rule
    # (where that rule applies directly) or for the transitive rule stops
    # propagating.  The latter is recorded so the driver can surface the
    # waiver as a used, audited suppression.
    filtered: dict[str, list[EffectSite]] = {}
    for func in sorted(summary.effect_sites):
        kept: list[EffectSite] = []
        for site in summary.effect_sites[func]:
            base_rule = EFFECT_BASE_RULE[site.effect]
            if _base_rule_applies(site.effect, summary.path) and _waiver_at(
                module.waivers, base_rule, site.line
            ):
                continue  # the direct finding carries the waiver already
            transitive_rule = TRANSITIVE_RULE_FOR_EFFECT[site.effect]
            waiver = _waiver_at(module.waivers, transitive_rule, site.line)
            if waiver is not None:
                summary.sanctioned.append(
                    {
                        "line": site.line,
                        "rule": transitive_rule,
                        "desc": site.desc,
                        "reason": waiver.reason,
                        "waiver_line": waiver.line,
                    }
                )
                continue
            kept.append(site)
        if kept:
            filtered[func] = kept
    summary.effect_sites = filtered
    return summary
