"""The reprolint rule catalog: the project's invariants as AST checks.

Each rule encodes a contract the runtime counters and soak tests already
assert dynamically — here they are enforced on every line, statically:

========  ==============================================================
RL001     zero-copy: no packet decode / decoded-object construction in
          forwarding-plane modules (transit stays bytes-only)
RL002     determinism: no wall clocks, ambient randomness, or direct
          set iteration in ``repro.sim`` / ``repro.ndn``
RL003     no blocking calls (sleep/socket/subprocess) in engine and
          dispatcher hot loops
RL004     exception hygiene: no bare ``except``; broad catches need a
          chained re-raise or a waiver with a reason
RL005     no mutable default arguments
RL006     hot-path entry classes declare ``__slots__`` (cheap to hold)
RL007     TLV type numbers: referenced constants exist in ``TlvTypes``
          and no two constants share a number
RL008     ``__all__`` drift: exports exist, public defs are exported
========  ==============================================================

RL001–RL003 own no sink lists: they classify calls, attribute chains and
loop iterables through :mod:`repro.analysis.lint.effects`, the same table
their transitive counterparts RL009–RL011 propagate.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Sequence

from repro.analysis.lint.effects import (
    AMBIENT_ENTROPY,
    BLOCKING_MODULES,
    BLOCKS,
    DETERMINISM_DIRS,
    DETERMINISM_EXEMPT_FILES,
    ENTROPY_CALLS,
    ENTROPY_MODULES,
    FORWARDING_PLANE_FILES,
    HOT_LOOP_FILES,
    WALL_CLOCK,
    WIRE_DECODE,
    classify_attribute,
    classify_call,
    classify_iteration,
)
from repro.analysis.lint.engine import (
    Finding,
    Rule,
    SourceFile,
    SummaryRule,
    dotted_name,
)

__all__ = [
    "ZeroCopyRule",
    "DeterminismRule",
    "NoBlockingRule",
    "ExceptionHygieneRule",
    "MutableDefaultRule",
    "SlotsRule",
    "TlvRegistryRule",
    "ExportDriftRule",
    "default_rules",
]


class ZeroCopyRule(Rule):
    """RL001: a transiting packet is never decoded on the forwarding plane.

    The runtime half of this contract is the ``WirePacket.wire_decodes``
    counter asserted by benches and soaks; this is the static half.  Flags,
    inside forwarding-plane modules only, the ``WIRE_DECODE`` sinks of
    :func:`~repro.analysis.lint.effects.classify_call`:

    * zero-argument ``.decode()`` calls (the ``WirePacket.decode()``
      materialisation; ``bytes.decode("utf-8")`` with an explicit encoding
      is not a packet decode and stays legal),
    * ``Interest.decode(...)`` / ``Data.decode(...)`` / ``Nack.decode(...)``,
    * decoded-object construction: ``Interest(...)`` / ``Data(...)`` /
      ``Nack(...)``.
    """

    id = "RL001"
    title = "no decode on the forwarding plane"
    rationale = "transit is bytes-only; decoding belongs to endpoints"
    #: Shared with the effect layer so RL001 and RL011 police one boundary.
    scope_files = FORWARDING_PLANE_FILES

    def check(self, module: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            classified = classify_call(node, module.path)
            if classified is None or classified[0] != WIRE_DECODE:
                continue
            desc = classified[1]
            if desc == ".decode()":
                message = (
                    ".decode() on the forwarding plane; transiting "
                    "packets must never be materialised"
                )
            elif desc.endswith(".decode(...)"):
                message = (
                    f"{desc} on the forwarding plane; "
                    "transit packets must stay wire views"
                )
            else:
                message = (
                    f"decoded-object construction {desc} on the "
                    "forwarding plane; hand the wire buffer on instead"
                )
            yield self.finding(node, message)


class DeterminismRule(Rule):
    """RL002: simulation and forwarding code is bit-deterministic.

    Flags wall-clock reads, ambient randomness (the ``random`` module,
    ``numpy.random``, ``os.urandom``, ``uuid4``, ``secrets``) and direct
    iteration over set displays/constructors (whose order is hash-seed
    dependent) in ``repro.sim`` and ``repro.ndn`` — the ``WALL_CLOCK``,
    ``AMBIENT_ENTROPY`` and ``SET_ITERATION`` sinks of the effect layer.
    The sanctioned sources: clocks come from the engine
    (``Environment.now``), randomness from ``repro.sim.rng`` — which is
    therefore exempt by design, not by waiver.
    """

    id = "RL002"
    title = "determinism: engine clocks and seeded RNG only"
    rationale = "sim runs must be bit-reproducible across hosts and seeds"
    scope_dirs = DETERMINISM_DIRS
    exclude_files = DETERMINISM_EXEMPT_FILES

    def check(self, module: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] in ENTROPY_MODULES:
                        yield self.finding(
                            node,
                            f"import of nondeterministic module "
                            f"{alias.name!r}; use repro.sim.rng streams",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.split(".")[0] in ENTROPY_MODULES:
                    yield self.finding(
                        node,
                        f"import from nondeterministic module "
                        f"{node.module!r}; use repro.sim.rng streams",
                    )
            elif isinstance(node, ast.Attribute):
                classified = classify_attribute(dotted_name(node) or "")
                if classified is None:
                    continue
                effect, chain = classified
                if effect == WALL_CLOCK or chain in ENTROPY_CALLS:
                    yield self.finding(
                        node,
                        f"nondeterministic call {chain}; clocks come from "
                        "the engine, entropy from repro.sim.rng",
                    )
                elif effect == AMBIENT_ENTROPY:
                    yield self.finding(
                        node,
                        f"ambient randomness {chain}; draw from a "
                        "repro.sim.rng stream instead",
                    )
            elif isinstance(node, (ast.For, ast.comprehension)):
                if classify_iteration(node.iter) is not None:
                    yield self.finding(
                        node.iter,
                        "iteration over an unsorted set: order depends on "
                        "the hash seed; sort or use an ordered container",
                    )


class NoBlockingRule(Rule):
    """RL003: engine and dispatcher hot loops never block the OS thread.

    ``time.sleep``, sockets and subprocesses (the ``BLOCKS`` sinks of the
    effect layer) inside the event loop or the dispatch path stall every
    simulated process at once.
    """

    id = "RL003"
    title = "no blocking calls in hot loops"
    rationale = "one blocked dispatcher stalls every simulated process"
    scope_files = HOT_LOOP_FILES

    def check(self, module: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] in BLOCKING_MODULES:
                        yield self.finding(
                            node,
                            f"import of blocking module {alias.name!r} in a "
                            "hot-loop module",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.split(".")[0] in BLOCKING_MODULES:
                    yield self.finding(
                        node,
                        f"import from blocking module {node.module!r} in a "
                        "hot-loop module",
                    )
            elif isinstance(node, ast.Attribute):
                classified = classify_attribute(dotted_name(node) or "")
                if classified is not None and classified[0] == BLOCKS:
                    yield self.finding(
                        node,
                        f"blocking call {classified[1]} in a hot-loop module",
                    )


class ExceptionHygieneRule(Rule):
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
                    node, "bare except: catches SystemExit/KeyboardInterrupt "
                    "and engine interrupts; name the exception type"
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


class MutableDefaultRule(Rule):
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


class SlotsRule(Rule):
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
        return name.endswith(self._NAME_SUFFIXES) or node.name in self._EXTRA_NAMES

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


class TlvRegistryRule(SummaryRule):
    """RL007: TLV type numbers live in one registry, each number once.

    Reads the ``TlvTypes`` constants and ``TlvTypes.X`` reference lists
    from the module summaries (extracted once per parse, cached with the
    file) and checks (a) no two constants share a type number — a
    duplicate silently corrupts every span scan that matches the first
    occurrence of a type — and (b) every ``TlvTypes.X`` reference
    anywhere in ``repro/ndn`` resolves to a defined constant.
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


class ExportDriftRule(Rule):
    """RL008: ``__all__`` matches reality.

    Every name listed in ``__all__`` must be bound at module top level, no
    name may be listed twice, and every public top-level class or function
    must appear in ``__all__`` (or be renamed ``_private``).  Modules
    without ``__all__`` are skipped — the rule polices drift, it does not
    mandate the convention.
    """

    id = "RL008"
    title = "__all__ drift"
    rationale = "stale exports break star-imports and document a false API"

    def check(self, module: SourceFile) -> Iterator[Finding]:
        exports = self._exports(module.tree)
        if exports is None:
            return
        names, node, star_import = exports
        bound = self._top_level_bindings(module.tree)
        seen: set[str] = set()
        for name in names:
            if name in seen:
                yield self.finding(node, f"__all__ lists {name!r} twice")
            seen.add(name)
            if not star_import and name not in bound:
                yield self.finding(
                    node,
                    f"__all__ exports {name!r} but the module never binds it",
                )
        for defined in self._public_defs(module.tree):
            if defined.name not in seen:
                yield self.finding(
                    defined,
                    f"public definition {defined.name!r} missing from "
                    "__all__ (export it or rename it _private)",
                )

    @staticmethod
    def _exports(
        tree: ast.Module,
    ) -> Optional[tuple[list[str], ast.AST, bool]]:
        star_import = any(
            isinstance(node, ast.ImportFrom)
            and any(alias.name == "*" for alias in node.names)
            for node in tree.body
        )
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == "__all__":
                        if isinstance(node.value, (ast.List, ast.Tuple)) and all(
                            isinstance(elt, ast.Constant)
                            and isinstance(elt.value, str)
                            for elt in node.value.elts
                        ):
                            names = [elt.value for elt in node.value.elts]
                            return names, node, star_import
        return None

    def _top_level_bindings(self, tree: ast.Module) -> set[str]:
        bound: set[str] = set()

        def visit(stmts: Sequence[ast.stmt]) -> None:
            for stmt in stmts:
                if isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    bound.add(stmt.name)
                elif isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        self._collect_targets(target, bound)
                elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                    self._collect_targets(stmt.target, bound)
                elif isinstance(stmt, ast.Import):
                    for alias in stmt.names:
                        bound.add(alias.asname or alias.name.split(".")[0])
                elif isinstance(stmt, ast.ImportFrom):
                    for alias in stmt.names:
                        if alias.name != "*":
                            bound.add(alias.asname or alias.name)
                elif isinstance(stmt, (ast.If, ast.Try)):
                    visit(stmt.body)
                    visit(getattr(stmt, "orelse", []))
                    for handler in getattr(stmt, "handlers", []):
                        visit(handler.body)
                    visit(getattr(stmt, "finalbody", []))
                elif isinstance(stmt, (ast.For, ast.While, ast.With)):
                    visit(stmt.body)

        visit(tree.body)
        return bound

    @staticmethod
    def _collect_targets(target: ast.expr, into: set[str]) -> None:
        if isinstance(target, ast.Name):
            into.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                ExportDriftRule._collect_targets(elt, into)

    @staticmethod
    def _public_defs(tree: ast.Module):
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not stmt.name.startswith("_"):
                    yield stmt


def default_rules() -> list[Rule]:
    """The full catalog, in rule-id order."""
    from repro.analysis.lint.flowrules import flow_rules
    from repro.analysis.lint.interproc import interprocedural_rules

    return [
        ZeroCopyRule(),
        DeterminismRule(),
        NoBlockingRule(),
        ExceptionHygieneRule(),
        MutableDefaultRule(),
        SlotsRule(),
        TlvRegistryRule(),
        ExportDriftRule(),
        *interprocedural_rules(),
        *flow_rules(),
    ]
