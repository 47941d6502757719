"""The reprolint rule catalog: the project's invariants as AST checks.

Each rule encodes a contract the runtime counters and soak tests already
assert dynamically — here they are enforced on every line, statically.
This module holds the module-local rules:

========  ==============================================================
RL004     exception hygiene: no bare ``except``; broad catches need a
          chained re-raise or a waiver with a reason
RL005     no mutable default arguments
RL006     hot-path entry classes declare ``__slots__`` (cheap to hold)
RL007     TLV type numbers: referenced constants exist in ``TlvTypes``
          and no two constants share a number
RL008     ``__all__`` drift: exports exist, public defs are exported
========  ==============================================================

The effect invariants (RL009 no blocking in hot loops, RL010
determinism, RL011 zero-copy transit) live in
:mod:`repro.analysis.lint.interproc`: each reports a sink where it is
written and wherever a call carries it into the protected scope.  RL012
(an export nothing else in the scanned tree references) lives there
too, because it reads the same project index.  Rule ids RL001–RL003 are
retired, not reused.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.lint.engine import (
    Finding,
    Rule,
    SourceFile,
    SummaryRule,
    dotted_name,
)

__all__ = ["default_rules"]


class _ExceptionHygieneRule(Rule):
    """RL004: no bare ``except``; broad catches are deliberate or waived.

    A bare ``except:`` (which swallows ``KeyboardInterrupt`` and the
    engine's control-flow exceptions) is always a finding.  ``except
    Exception`` / ``except BaseException`` is a finding *unless* the handler
    re-raises — a bare ``raise`` or ``raise Narrower(...) from exc`` keeps
    the failure visible — or carries a waiver stating why swallowing
    arbitrary errors is the right behaviour (e.g. a kubelet failing the pod
    instead of itself).
    """

    id = "RL004"
    title = "exception hygiene"
    rationale = "broad silent catches hide engine control flow and real bugs"

    _BROAD = frozenset({"Exception", "BaseException"})

    def check(self, module: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    node, "bare except: catches SystemExit and KeyboardInterrupt; "
                    "name the exception type"
                )
                continue
            broad = self._broad_names(node.type)
            if broad and not self._reraises(node):
                yield self.finding(
                    node,
                    f"except {'/'.join(sorted(broad))} without re-raise: "
                    "narrow the type, chain `raise ... from exc`, or waive "
                    "with a reason",
                )

    def _broad_names(self, type_node: ast.expr) -> set[str]:
        names = set()
        candidates = (
            type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
        )
        for candidate in candidates:
            if isinstance(candidate, ast.Name) and candidate.id in self._BROAD:
                names.add(candidate.id)
        return names

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise) and (
                node.exc is None or node.cause is not None
            ):
                return True
        return False


class _MutableDefaultRule(Rule):
    """RL005: no mutable default arguments.

    A ``def f(x=[])`` default is evaluated once and shared across every
    call — state leaks between invocations (and between simulation runs,
    which breaks determinism too).
    """

    id = "RL005"
    title = "no mutable default arguments"
    rationale = "shared defaults leak state across calls and sim runs"

    _MUTABLE_CALLS = frozenset(
        {"list", "dict", "set", "bytearray", "deque", "defaultdict", "OrderedDict", "Counter"}
    )

    def check(self, module: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            for default in list(args.defaults) + [
                d for d in args.kw_defaults if d is not None
            ]:
                label = self._mutable_label(default)
                if label is not None:
                    yield self.finding(
                        default,
                        f"mutable default argument ({label}): evaluated once "
                        "and shared across calls; default to None instead",
                    )

    def _mutable_label(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, (ast.List, ast.ListComp)):
            return "list"
        if isinstance(node, (ast.Dict, ast.DictComp)):
            return "dict"
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(node, ast.Call):
            name = None
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            if name in self._MUTABLE_CALLS:
                return f"{name}()"
        return None


class _SlotsRule(Rule):
    """RL006: hot-path entry classes declare ``__slots__``.

    A 10k-node overlay holds millions of CS/PIT/FIB entries and name-tree
    nodes; an instance ``__dict__`` costs ~300 bytes against ~60 for the
    slotted object.  Any class in a table module whose name marks it as a
    per-entry record (``*Entry``, ``*Record``, ``*Node``, ``NextHop``) must
    be slotted — either a literal ``__slots__`` or
    ``@dataclass(slots=True)``.  Enums are exempt (they cannot be slotted).
    """

    id = "RL006"
    title = "hot-path entries declare __slots__"
    rationale = "entry classes exist in millions; a __dict__ per entry is ~5x"
    scope_files = (
        "/repro/ndn/cs.py",
        "/repro/ndn/pit.py",
        "/repro/ndn/fib.py",
        "/repro/ndn/nametree.py",
        "/repro/ndn/strategy.py",
        "/repro/ndn/shard.py",
        "/repro/ndn/client.py",
    )

    _NAME_SUFFIXES = ("Entry", "Record", "Node")
    _EXTRA_NAMES = frozenset({"NextHop", "PendingInterest"})

    def _is_entry_class(self, node: ast.ClassDef) -> bool:
        name = node.name.lstrip("_")
        return name.endswith(self._NAME_SUFFIXES) or name in self._EXTRA_NAMES

    def check(self, module: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef) or not self._is_entry_class(node):
                continue
            if self._subclasses_enum(node):
                continue
            if not self._declares_slots(node):
                yield self.finding(
                    node,
                    f"hot-path entry class {node.name} lacks __slots__ "
                    "(declare __slots__ or use @dataclass(slots=True))",
                )

    @staticmethod
    def _subclasses_enum(node: ast.ClassDef) -> bool:
        for base in node.bases:
            chain = dotted_name(base) or ""
            if chain.endswith("Enum"):
                return True
        return False

    @staticmethod
    def _declares_slots(node: ast.ClassDef) -> bool:
        for stmt in node.body:
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        for decorator in node.decorator_list:
            if isinstance(decorator, ast.Call):
                chain = dotted_name(decorator.func) or ""
                if chain.split(".")[-1] == "dataclass":
                    for keyword in decorator.keywords:
                        if (
                            keyword.arg == "slots"
                            and isinstance(keyword.value, ast.Constant)
                            and keyword.value.value is True
                        ):
                            return True
        return False


class _TlvRegistryRule(SummaryRule):
    """RL007: TLV type numbers live in one registry, each number once.

    Reads the ``TlvTypes`` constants and ``TlvTypes.X`` reference lists
    from the module summaries (extracted once per parse) and checks
    (a) no two constants share a type number — a duplicate silently
    corrupts every span scan that matches the first occurrence of a
    type — and (b) every ``TlvTypes.X`` reference anywhere in
    ``repro/ndn`` resolves to a defined constant.
    """

    id = "RL007"
    title = "TLV type registry consistency"
    rationale = "a duplicate or phantom type number corrupts span scans"
    scope_dirs = ("/repro/ndn/",)

    _REGISTRY_FILE = "/repro/ndn/tlv.py"
    _REGISTRY_CLASS = "TlvTypes"

    def check_summaries(self, records, index) -> Iterator[Finding]:
        registry = next(
            (
                r
                for r in records
                if r.summary is not None
                and r.path.endswith(self._REGISTRY_FILE)
            ),
            None,
        )
        if registry is None:
            return  # partial scan without the registry: nothing to check against
        constants = registry.summary.tlv_registry
        if constants is None:
            yield Finding(
                rule=self.id,
                path=registry.display,
                line=1,
                col=0,
                message=f"registry class {self._REGISTRY_CLASS} not found in "
                "the TLV module",
            )
            return
        by_value: dict[int, str] = {}
        for name, (value, line) in constants.items():
            if value in by_value:
                yield Finding(
                    rule=self.id,
                    path=registry.display,
                    line=line,
                    col=0,
                    message=f"duplicate TLV type number {value:#x}: "
                    f"{name} collides with {by_value[value]}",
                )
            else:
                by_value[value] = name
        for record in records:
            if record.summary is None:
                continue
            for attr, line, col in record.summary.tlv_refs:
                if attr not in constants:
                    yield Finding(
                        rule=self.id,
                        path=record.display,
                        line=line,
                        col=col,
                        message=f"TlvTypes.{attr} is not defined in the "
                        "TLV registry",
                    )


class _ExportDriftRule(SummaryRule):
    """RL008: ``__all__`` matches reality.

    Every name listed in ``__all__`` must be bound at module top level, no
    name may be listed twice, and every public top-level class or function
    must appear in ``__all__`` (or be renamed ``_private``).  Modules
    without ``__all__`` are skipped — the rule polices drift, it does not
    mandate the convention.  It reads the ``__all__`` the module summary
    parsed, so the literal is parsed once per file.
    """

    id = "RL008"
    title = "__all__ drift"
    rationale = "stale exports break star-imports and document a false API"

    def check_summaries(self, records, index) -> Iterator[Finding]:
        for record in records:
            summary = record.summary
            if summary is None or summary.exports is None:
                continue
            seen: set[str] = set()
            for name in summary.exports:
                if name in seen:
                    yield self._at(record, summary.exports_line, f"__all__ lists {name!r} twice")
                seen.add(name)
                if not summary.star_import and name not in summary.bound:
                    yield self._at(
                        record,
                        summary.exports_line,
                        f"__all__ exports {name!r} but the module never binds it",
                    )
            defs = {
                name: line for name, line in summary.functions.items() if "." not in name
            }
            defs.update(
                (name, info["line"])
                for name, info in summary.classes.items()
                if "." not in name
            )
            for name, line in sorted(defs.items(), key=lambda item: item[1]):
                if not name.startswith("_") and name not in seen:
                    yield self._at(
                        record,
                        line,
                        f"public definition {name!r} missing from "
                        "__all__ (export it or rename it _private)",
                    )

    def _at(self, record, line: int, message: str) -> Finding:
        return Finding(rule=self.id, path=record.display, line=line, col=0, message=message)


def default_rules() -> list[Rule]:
    """The full catalog, in rule-id order."""
    from repro.analysis.lint.interproc import interprocedural_rules

    return [
        _ExceptionHygieneRule(),
        _MutableDefaultRule(),
        _SlotsRule(),
        _TlvRegistryRule(),
        _ExportDriftRule(),
        *interprocedural_rules(),
    ]
