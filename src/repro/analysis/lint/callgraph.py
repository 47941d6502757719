"""Conservative name-based call graph over module summaries.

:class:`ProjectIndex` links every scanned module's summary into one
whole-program view: a global symbol table (functions, classes, import
bindings, re-exports through package ``__init__`` modules), a class
hierarchy, and resolved call edges, then closes per-function effects over
the graph (:func:`repro.analysis.lint.effects.propagate`).

Resolution strategy, most precise first:

* direct ``name()`` calls resolve through module-level defs and import
  bindings (following package re-export chains);
* ``mod.attr`` dotted calls resolve through the import table into the
  target module's symbols — constructing a class resolves to its
  ``__init__`` (searching ancestors);
* ``self.m()`` / ``cls.m()`` resolves by class-hierarchy approximation:
  every definition of ``m`` in the enclosing class, its ancestors and its
  descendants (override dispatch) becomes an edge;
* a bare-attribute call ``obj.m()`` with an unknown receiver falls back
  to *every* project method named ``m`` — except dunders and names that
  collide with builtin container/string/IO/generator methods
  (:data:`AMBIGUOUS_METHOD_NAMES`), where the flood of false edges would
  drown the signal.  Precision over recall, only at the ambiguity
  frontier, and only for the fallback tier;
* function references in argument position (callbacks,
  ``functools.partial`` targets) become may-call edges, but only when
  they resolve without the fallback tier.

Everything iterates in sorted order, so edges, effects and witness
chains are bit-stable across runs: reports are reproducible.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.analysis.lint.effects import EFFECT_BARRIERS, EffectSite, propagate
from repro.analysis.lint.symbols import MODULE_KEY, ModuleSummary

__all__ = ["AMBIGUOUS_METHOD_NAMES", "ProjectIndex"]

#: Method names skipped by the unknown-receiver fallback: they collide
#: with builtin dict/list/set/str/IO/generator/socket/executor APIs, so a
#: bare ``obj.get(...)`` is overwhelmingly a builtin call, not a project
#: one.
AMBIGUOUS_METHOD_NAMES = frozenset(
    {
        "add", "accept", "acquire", "append", "appendleft", "bind",
        "bit_length", "cancel", "clear", "close", "connect", "copy",
        "count", "discard", "done", "encode", "endswith", "extend",
        "findall", "flush", "format", "from_bytes", "get", "group",
        "groups", "hex", "index", "insert", "is_set", "items", "join",
        "keys", "lower", "lstrip", "match", "most_common", "notify",
        "notify_all", "open", "pop", "popitem", "popleft", "put", "read",
        "readline", "readlines", "recv", "release", "remove", "replace",
        "reverse", "rsplit", "rstrip", "run", "search", "seek", "send",
        "set", "setdefault", "sort", "split", "startswith", "strip",
        "sub", "submit",
        "tell", "throw", "to_bytes", "total_seconds", "update", "upper",
        "values", "wait", "write", "writelines",
    }
)

_MAX_REEXPORT_DEPTH = 8


class ProjectIndex:
    """Whole-program symbol, call-graph and effect view."""

    def __init__(self, summaries: Iterable[ModuleSummary]) -> None:
        self.summaries: dict[str, ModuleSummary] = {}
        for summary in summaries:
            self.summaries.setdefault(summary.key, summary)
        #: dotted module name -> summary (only modules with real names)
        self.modules: dict[str, ModuleSummary] = {
            s.module: s for s in self.summaries.values() if s.module
        }
        #: global function qualname -> (module key, local qualname, line)
        self.functions: dict[str, tuple[str, str, int]] = {}
        #: global class qualname -> class info dict
        self.classes: dict[str, dict] = {}
        #: method name -> sorted list of defining class qualnames
        self.method_index: dict[str, list[str]] = {}
        for key in sorted(self.summaries):
            summary = self.summaries[key]
            for local, line in summary.functions.items():
                self.functions[f"{key}.{local}"] = (key, local, line)
            self.functions.setdefault(f"{key}.{MODULE_KEY}", (key, MODULE_KEY, 1))
            for class_local, info in summary.classes.items():
                class_qual = f"{key}.{class_local}"
                self.classes[class_qual] = info
                for method in info["methods"]:
                    self.method_index.setdefault(method, []).append(class_qual)
        for method in self.method_index:
            self.method_index[method].sort()
        self._parents: dict[str, list[str]] = {}
        self._children: dict[str, list[str]] = {}
        self._link_hierarchy()
        #: module key -> local function -> sorted [(callee qual, line, col)]
        self.resolved: dict[str, dict[str, list[tuple[str, int, int]]]] = {}
        #: name -> sorted module keys mentioning it
        self.mentioned_in: dict[str, list[str]] = {}
        self._resolve_all()
        self.effects = propagate(self._direct_effects(), self._edges(), self._barred())

    # ---------------------------------------------------------------- building

    def _link_hierarchy(self) -> None:
        for class_qual in sorted(self.classes):
            key = class_qual.rsplit(".", 1)[0]
            while key and key not in self.summaries:
                key = key.rsplit(".", 1)[0] if "." in key else ""
            summary = self.summaries.get(key)
            if summary is None:
                continue
            parents: list[str] = []
            for base in self.classes[class_qual]["bases"]:
                resolved = self._resolve_class_name(summary, base)
                if resolved is not None:
                    parents.append(resolved)
            self._parents[class_qual] = parents
            for parent in parents:
                self._children.setdefault(parent, []).append(class_qual)
        for children in self._children.values():
            children.sort()

    def _resolve_class_name(
        self, summary: ModuleSummary, dotted: str
    ) -> Optional[str]:
        parts = dotted.split(".")
        head = parts[0]
        if dotted in summary.classes:
            return f"{summary.key}.{dotted}"
        if head in summary.imports:
            target = ".".join([summary.imports[head]] + parts[1:])
            resolved = self._resolve_target(target)
            if resolved is not None and resolved[0] == "class":
                return resolved[1]
        return None

    def _resolve_target(
        self, dotted: str, _depth: int = 0
    ) -> Optional[tuple[str, str]]:
        """Resolve a fully dotted path to ``("func"|"class"|"module", qual)``."""
        if _depth > _MAX_REEXPORT_DEPTH:
            return None
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            summary = self.modules.get(prefix)
            if summary is None:
                continue
            rest = parts[cut:]
            if not rest:
                return "module", prefix
            local = ".".join(rest)
            if local in summary.functions:
                return "func", f"{prefix}.{local}"
            if rest[0] in summary.classes:
                if len(rest) == 1:
                    return "class", f"{prefix}.{rest[0]}"
                if len(rest) == 2 and rest[1] in summary.classes[rest[0]]["methods"]:
                    return "func", f"{prefix}.{rest[0]}.{rest[1]}"
                return None
            if rest[0] in summary.imports:
                # package __init__ re-export: follow the chain
                target = ".".join([summary.imports[rest[0]]] + rest[1:])
                return self._resolve_target(target, _depth + 1)
            return None
        return None

    # ---------------------------------------------------------------- hierarchy

    def _ancestors(self, class_qual: str) -> list[str]:
        out: list[str] = []
        frontier = list(self._parents.get(class_qual, ()))
        seen = {class_qual}
        while frontier:
            current = frontier.pop(0)
            if current in seen:
                continue
            seen.add(current)
            out.append(current)
            frontier.extend(self._parents.get(current, ()))
        return out

    def _descendants(self, class_qual: str) -> list[str]:
        out: list[str] = []
        frontier = list(self._children.get(class_qual, ()))
        seen = {class_qual}
        while frontier:
            current = frontier.pop(0)
            if current in seen:
                continue
            seen.add(current)
            out.append(current)
            frontier.extend(self._children.get(current, ()))
        return out

    def _cha_lookup(self, class_qual: str, method: str) -> list[str]:
        """Every definition of ``method`` visible from ``class_qual``."""
        candidates: list[str] = []
        for candidate in (
            [class_qual] + self._ancestors(class_qual) + self._descendants(class_qual)
        ):
            info = self.classes.get(candidate)
            if info is not None and method in info["methods"]:
                candidates.append(f"{candidate}.{method}")
        return sorted(set(candidates))

    def _init_targets(self, class_qual: str) -> list[str]:
        """The ``__init__`` run by constructing ``class_qual`` (or nearest base's)."""
        for candidate in [class_qual] + self._ancestors(class_qual):
            info = self.classes.get(candidate)
            if info is not None and "__init__" in info["methods"]:
                return [f"{candidate}.__init__"]
        return []

    def _fallback_methods(self, method: str) -> list[str]:
        if method.startswith("__") or method in AMBIGUOUS_METHOD_NAMES:
            return []
        return [
            f"{class_qual}.{method}"
            for class_qual in self.method_index.get(method, ())
        ]

    # ---------------------------------------------------------------- calls

    def _resolve_descriptor(
        self, summary: ModuleSummary, caller_local: str, descriptor: dict
    ) -> list[str]:
        kind = descriptor["kind"]
        if kind in ("name", "refname"):
            return self._resolve_name(summary, descriptor["name"])
        if kind == "attr":
            return self._fallback_methods(descriptor["attr"])
        # dotted / refdotted
        parts = descriptor["dotted"].split(".")
        allow_fallback = kind == "dotted"
        head = parts[0]
        if head in ("self", "cls") and "." in caller_local:
            class_qual = f"{summary.key}.{caller_local.rsplit('.', 1)[0]}"
            if len(parts) == 2:
                found = self._cha_lookup(class_qual, parts[1])
                if found:
                    return found
            return self._fallback_methods(parts[-1]) if allow_fallback else []
        if head in summary.classes and len(parts) == 2:
            return self._cha_lookup(f"{summary.key}.{head}", parts[1])
        if head in summary.imports:
            target = ".".join([summary.imports[head]] + parts[1:])
            resolved = self._resolve_target(target)
            if resolved is not None:
                if resolved[0] == "func":
                    return [resolved[1]]
                if resolved[0] == "class":
                    return self._init_targets(resolved[1])
                return []
            base = self._resolve_target(summary.imports[head])
            if base is not None and base[0] == "class" and len(parts) == 2:
                return self._cha_lookup(base[1], parts[1])
            if base is not None:
                return []  # known project symbol, unknown attribute
            return []  # an external module: stdlib/third-party
        return self._fallback_methods(parts[-1]) if allow_fallback else []

    def _resolve_name(self, summary: ModuleSummary, name: str) -> list[str]:
        if name in summary.functions and "." not in name:
            return [f"{summary.key}.{name}"]
        if name in summary.classes:
            return self._init_targets(f"{summary.key}.{name}")
        if name in summary.imports:
            resolved = self._resolve_target(summary.imports[name])
            if resolved is not None:
                if resolved[0] == "func":
                    return [resolved[1]]
                if resolved[0] == "class":
                    return self._init_targets(resolved[1])
        return []

    def _resolve_all(self) -> None:
        for key in sorted(self.summaries):
            summary = self.summaries[key]
            for name in summary.mentions:
                self.mentioned_in.setdefault(name, []).append(key)
            per_function: dict[str, list[tuple[str, int, int]]] = {}
            for caller_local in sorted(summary.calls):
                edges: set[tuple[str, int, int]] = set()
                for descriptor in summary.calls[caller_local]:
                    for target in self._resolve_descriptor(
                        summary, caller_local, descriptor
                    ):
                        edges.add((target, descriptor["line"], descriptor["col"]))
                if edges:
                    per_function[caller_local] = sorted(edges)
            self.resolved[key] = per_function

    # ---------------------------------------------------------------- effects

    def _edges(self) -> dict[str, list[tuple[str, int, int]]]:
        edges: dict[str, list[tuple[str, int, int]]] = {}
        for key in sorted(self.resolved):
            for caller_local, targets in self.resolved[key].items():
                edges[f"{key}.{caller_local}"] = targets
        return edges

    def _direct_effects(self) -> dict[str, list[EffectSite]]:
        direct: dict[str, list[EffectSite]] = {}
        for key in sorted(self.summaries):
            summary = self.summaries[key]
            for local, sites in summary.effect_sites.items():
                direct[f"{key}.{local}"] = list(sites)
        return direct

    def _barred(self) -> dict[str, frozenset[str]]:
        barred: dict[str, frozenset[str]] = {}
        for key in sorted(self.summaries):
            summary = self.summaries[key]
            effects = frozenset()
            for suffix, barred_effects in EFFECT_BARRIERS.items():
                if summary.path.endswith(suffix):
                    effects = effects | barred_effects
            if effects:
                locals_ = set(summary.functions) | set(summary.effect_sites) | {
                    MODULE_KEY
                }
                for local in locals_:
                    barred[f"{key}.{local}"] = effects
        return barred

    # ---------------------------------------------------------------- queries

    def path_of_function(self, qualname: str) -> Optional[str]:
        entry = self.functions.get(qualname)
        if entry is None:
            # a method qual: strip the method, look for its class's module
            if "." in qualname:
                class_qual, method = qualname.rsplit(".", 1)
                info = self.classes.get(class_qual)
                if info is not None:
                    key = self._module_key_of_class(class_qual)
                    if key is not None:
                        return self.summaries[key].path
            return None
        return self.summaries[entry[0]].path

    def display_of_function(self, qualname: str) -> Optional[str]:
        entry = self.functions.get(qualname)
        if entry is None:
            return None
        return self.summaries[entry[0]].display

    def line_of_function(self, qualname: str) -> int:
        entry = self.functions.get(qualname)
        return entry[2] if entry is not None else 1

    def _module_key_of_class(self, class_qual: str) -> Optional[str]:
        key = class_qual
        while "." in key:
            key = key.rsplit(".", 1)[0]
            if key in self.summaries:
                return key
        return key if key in self.summaries else None

    def calls_from(self, key: str) -> dict[str, list[tuple[str, int, int]]]:
        """Resolved edges for one module, keyed by local function."""
        return self.resolved.get(key, {})

    def referenced_elsewhere(self, name: str, own_key: str) -> bool:
        """Is ``name`` mentioned by any module other than ``own_key``?"""
        return any(key != own_key for key in self.mentioned_in.get(name, ()))
