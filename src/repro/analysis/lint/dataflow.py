"""Dataflow analysis over the lint CFG (:mod:`repro.analysis.lint.cfg`).

:func:`analyze_function` is the per-function pass that extracts the flow
facts the RL013/RL014 rules consume: buffer escape/mutation orderings,
handle acquire→exit leak paths, and the one-call-deep summary bits
(``param_escapes`` / ``param_releases``).

Everything returned is plain JSON-serialisable data with deterministic
ordering, so results round-trip through :class:`ModuleSummary` and the
``SummaryCache`` byte-identically.

Precision notes (documented so rule behaviour is predictable):

* aliasing is name-level and flow-insensitive — ``y = x`` and
  ``y = memoryview(x)`` merge tracking groups; ``bytes(x)`` and
  ``bytearray(x)`` are copies and start (or stay outside) a new group;
* leak search (RL014) follows *normal* control flow only — edges into
  ``except`` handler heads are skipped, so a handle closed on the happy
  path does not flag merely because any statement may raise (that is
  what ``with`` is for, and RL014 treats ``with`` as trivially clean);
* calls that pass a tracked value to an unknown callee produce
  *conditional* events carrying the call site ``(line, col)``; the
  project phase (``flowrules.py``) matches those against the resolved
  call graph and callee summaries one call deep.
"""

from __future__ import annotations

import ast
import re
from typing import Callable, Dict, List, Optional, Set, Tuple

from .cfg import build_cfg

__all__ = ["analyze_function", "FunctionFlow"]

# A function-flow summary is a plain dict; alias for readability in signatures.
FunctionFlow = Dict[str, object]

BUFFER_NAME_RE = re.compile(r"(?:^|_)(?:buf|buffer|wire|frame|payload|blob)(?:_|$|s$)")

MUTATING_BUFFER_METHODS = frozenset(
    {"extend", "append", "insert", "clear", "reverse", "remove", "pop", "sort"}
)
ESCAPE_METHODS = frozenset(
    {
        "append", "add", "put", "put_nowait", "send", "send_bytes", "setdefault",
        "update", "write", "store", "admit", "record", "register", "publish",
        "deliver", "enqueue", "push", "insert", "cache", "appendleft",
    }
)
RELEASE_METHODS = frozenset(
    {
        "close", "release", "terminate", "kill", "wait", "join", "communicate",
        "shutdown", "unlink", "detach", "__exit__",
    }
)
HANDLE_FACTORIES = {"open": "open", "Popen": "popen", "Pipe": "pipe"}


# ---------------------------------------------------------------------------
# Name/alias helpers
# ---------------------------------------------------------------------------

def _ref_name(expr: ast.expr) -> Optional[str]:
    """A Name or dotted-attribute chain rendered as a string, else None."""
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _call_callee(call: ast.Call) -> Optional[str]:
    return _ref_name(call.func)


class _Aliases:
    """Union-find over variable names (flow-insensitive alias groups)."""

    def __init__(self) -> None:
        self.parent: Dict[str, str] = {}

    def find(self, name: str) -> str:
        root = name
        while self.parent.get(root, root) != root:
            root = self.parent[root]
        while self.parent.get(name, name) != root:
            self.parent[name], name = root, self.parent[name]
        return root

    def merge(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Deterministic root: the lexicographically smaller name wins.
            lo, hi = sorted((ra, rb))
            self.parent[hi] = lo


# ---------------------------------------------------------------------------
# Event extraction
# ---------------------------------------------------------------------------

class _Event:
    __slots__ = ("kind", "group", "line", "col", "desc", "callee", "arg")

    def __init__(self, kind: str, group: str, line: int, col: int = 0,
                 desc: str = "", callee: Optional[str] = None,
                 arg: object = None) -> None:
        self.kind = kind  # mutate | escape | release | callpass | return
        self.group = group
        self.line = line
        self.col = col
        self.desc = desc
        self.callee = callee
        self.arg = arg  # positional index or keyword name at a call site


class _Origin:
    __slots__ = ("group", "var", "kind", "line", "desc", "block", "index")

    def __init__(self, group: str, var: str, kind: str, line: int, desc: str,
                 block: int, index: int) -> None:
        self.group = group
        self.var = var
        self.kind = kind  # buffer | handle:<what> | param
        self.line = line
        self.desc = desc
        self.block = block  # block id of the acquisition (entry for params)
        self.index = index  # statement-event index within the block


def _is_copy_call(node: ast.expr) -> bool:
    """``bytes(x)`` / ``bytearray(x)`` — a copy, not an alias of ``x``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("bytes", "bytearray")
    )


def _tracked_args(
    call: ast.Call, is_tracked: Callable[[str], bool]
) -> List[Tuple[str, object]]:
    """Tracked names passed as args, with how they were passed.

    Returns ``(name, argref)`` pairs where ``argref`` is the positional
    index, a keyword name, or ``None`` when the value is nested inside a
    display/starred arg (position unknowable).  The argref lets the
    project phase map a call site onto the callee's parameter summary.
    """
    found: List[Tuple[str, object]] = []
    for position, arg in enumerate(call.args):
        if isinstance(arg, ast.Name) and is_tracked(arg.id):
            found.append((arg.id, position))
        elif isinstance(arg, (ast.List, ast.Tuple, ast.Set)):
            for elt in arg.elts:
                if isinstance(elt, ast.Name) and is_tracked(elt.id):
                    found.append((elt.id, None))
        elif isinstance(arg, ast.Starred) and isinstance(arg.value, ast.Name):
            if is_tracked(arg.value.id):
                found.append((arg.value.id, None))
    for kw in call.keywords:
        if isinstance(kw.value, ast.Name) and is_tracked(kw.value.id):
            found.append((kw.value.id, kw.arg))
    return found


class _FunctionAnalyzer:
    def __init__(self, func: ast.AST) -> None:
        self.func = func
        self.cfg = build_cfg(func)
        self.aliases = _Aliases()
        self.origins: List[_Origin] = []
        self.origin_groups: Set[str] = set()
        self.events: Dict[int, List[_Event]] = {bid: [] for bid in self.cfg.blocks}
        self.param_names: List[str] = []

    # -- setup ---------------------------------------------------------

    def _collect_params(self) -> None:
        args = getattr(self.func, "args", None)
        if args is not None:
            for arg in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            ):
                self.param_names.append(arg.arg)

    def _collect_aliases(self) -> None:
        for node in ast.walk(self.func):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = node.value
            if isinstance(value, ast.Name):
                self.aliases.merge(target.id, value.id)
            elif (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "memoryview"
                and value.args
                and isinstance(value.args[0], ast.Name)
            ):
                self.aliases.merge(target.id, value.args[0].id)

    def _group(self, name: str) -> str:
        return self.aliases.find(name)

    def _is_tracked(self, name: str) -> bool:
        return self._group(name) in self.origin_groups

    def _origin_kind(self, group: str) -> Optional[str]:
        kinds = [o.kind for o in self.origins if o.group == group]
        return kinds[0] if kinds else None

    # -- origins -------------------------------------------------------

    def _add_origin(self, var: str, kind: str, line: int, desc: str,
                    block: int, index: int) -> None:
        group = self._group(var)
        self.origins.append(_Origin(group, var, kind, line, desc, block, index))
        self.origin_groups.add(group)

    def _seed_params(self) -> None:
        entry = self.cfg.entry.id
        line = getattr(self.func, "lineno", 0)
        for name in self.param_names:
            if name in ("self", "cls"):
                continue
            if BUFFER_NAME_RE.search(name):
                self._add_origin(name, "buffer", line, f"parameter {name!r}", entry, -1)
            else:
                self._add_origin(name, "param", line, f"parameter {name!r}", entry, -1)

    # -- per-statement event walk --------------------------------------

    def _scan(self) -> None:
        for bid in sorted(self.cfg.blocks):
            block = self.cfg.block(bid)
            for stmt in block.stmts:
                self._scan_stmt(stmt, bid)

    def _scan_stmt(self, stmt: ast.stmt, bid: int) -> None:
        events = self.events[bid]
        in_with_items: Set[int] = set()
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                for node in ast.walk(item.context_expr):
                    in_with_items.add(id(node))

        if isinstance(stmt, ast.Assign):
            self._scan_assign(stmt, bid)
        elif isinstance(stmt, ast.AugAssign):
            self._scan_store_target(stmt.target, stmt, bid, aug=True)
        elif isinstance(stmt, ast.Return) and isinstance(stmt.value, ast.Name):
            name = stmt.value.id
            if self._is_tracked(name):
                events.append(_Event("return", self._group(name), stmt.lineno,
                                     desc=f"returned as {name!r}"))

        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                self._scan_call(node, bid, skip_origin=id(node) in in_with_items)

    def _scan_assign(self, stmt: ast.Assign, bid: int) -> None:
        events = self.events[bid]
        value = stmt.value
        # Origin creation from the value side.
        if len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
            target = stmt.targets[0].id
            if isinstance(value, ast.Call):
                callee = _call_callee(value)
                tail = callee.rsplit(".", 1)[-1] if callee else None
                if tail == "bytearray":
                    self._add_origin(target, "buffer", stmt.lineno,
                                     f"{target} = bytearray(...)", bid, len(events))
                elif tail in HANDLE_FACTORIES and tail != "Pipe":
                    kind = HANDLE_FACTORIES[tail]
                    self._add_origin(target, f"handle:{kind}", stmt.lineno,
                                     f"{target} = {callee}(...)", bid, len(events))
        elif (
            len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Tuple)
            and isinstance(value, ast.Call)
        ):
            callee = _call_callee(value)
            if callee and callee.rsplit(".", 1)[-1] == "Pipe":
                for elt in stmt.targets[0].elts:
                    if isinstance(elt, ast.Name):
                        self._add_origin(elt.id, "handle:pipe", stmt.lineno,
                                         f"{elt.id} from {callee}(...)", bid, len(events))
        for target in stmt.targets:
            self._scan_store_target(target, stmt, bid, aug=False)

    def _scan_store_target(self, target: ast.expr, stmt: ast.stmt, bid: int,
                           aug: bool) -> None:
        events = self.events[bid]
        value = getattr(stmt, "value", None)
        # Mutation of a tracked buffer: buf[i] = / buf[i:j] = / buf += ...
        if isinstance(target, ast.Subscript):
            base = _ref_name(target.value)
            if base and "." not in base and self._is_tracked(base):
                group = self._group(base)
                if self._origin_kind(group) == "buffer" or any(
                    o.kind == "buffer" for o in self.origins if o.group == group
                ):
                    events.append(_Event("mutate", group, stmt.lineno,
                                         desc=f"{base}[...] store"))
            # Escape: container[key] = tracked
            if isinstance(value, ast.Name) and self._is_tracked(value.id):
                events.append(_Event("escape", self._group(value.id), stmt.lineno,
                                     desc=f"stored into {base or 'container'}[...]"))
        elif isinstance(target, ast.Attribute):
            # Escape/store: self.x = tracked (or obj.x = tracked)
            if isinstance(value, ast.Name) and self._is_tracked(value.id):
                dest = _ref_name(target) or "attribute"
                events.append(_Event("escape", self._group(value.id), stmt.lineno,
                                     desc=f"stored on {dest}"))
                events.append(_Event("release", self._group(value.id), stmt.lineno,
                                     desc=f"ownership moved to {dest}"))
        elif isinstance(target, ast.Name) and aug:
            if self._is_tracked(target.id):
                group = self._group(target.id)
                if any(o.kind == "buffer" for o in self.origins if o.group == group):
                    events.append(_Event("mutate", group, stmt.lineno,
                                         desc=f"{target.id} augmented in place"))

    def _scan_call(self, call: ast.Call, bid: int, skip_origin: bool) -> None:
        events = self.events[bid]
        line, col = call.lineno, call.col_offset
        callee = _call_callee(call)
        tail = callee.rsplit(".", 1)[-1] if callee else None

        # lock.acquire() outside a with-item creates an obligation on the
        # receiver; with-items never do (the with frame releases).
        if (tail == "acquire" and not skip_origin
                and isinstance(call.func, ast.Attribute)):
            receiver = _ref_name(call.func.value)
            if receiver:
                self._add_origin(receiver, "handle:lock", line,
                                 f"{receiver}.acquire()", bid, len(events))
                return

        # Release / mutation via a method on a tracked receiver.
        if isinstance(call.func, ast.Attribute):
            receiver = _ref_name(call.func.value)
            if receiver:
                base = receiver.split(".", 1)[0]
                tracked_receiver = None
                if "." in receiver and self._group(receiver) in self.origin_groups:
                    tracked_receiver = receiver
                elif self._is_tracked(base) and "." not in receiver:
                    tracked_receiver = base
                if tracked_receiver is not None:
                    group = self._group(tracked_receiver)
                    if tail in RELEASE_METHODS:
                        events.append(_Event("release", group, line,
                                             desc=f"{receiver}.{tail}()"))
                        return
                    if tail in MUTATING_BUFFER_METHODS and any(
                        o.kind == "buffer" for o in self.origins if o.group == group
                    ):
                        events.append(_Event("mutate", group, line,
                                             desc=f"{receiver}.{tail}(...)"))

        # Tracked values flowing out through call arguments.
        for name, argref in _tracked_args(call, self._is_tracked):
            group = self._group(name)
            if tail in ESCAPE_METHODS and isinstance(call.func, ast.Attribute):
                dest = _ref_name(call.func.value) or "container"
                events.append(_Event("escape", group, line,
                                     desc=f"{name!r} passed to {dest}.{tail}(...)"))
                events.append(_Event("release", group, line,
                                     desc=f"ownership moved via {dest}.{tail}(...)"))
            elif callee is not None:
                events.append(_Event("callpass", group, line, col,
                                     desc=f"{name!r} passed to {callee}(...)",
                                     callee=callee, arg=argref))

    # -- path queries --------------------------------------------------

    def _reach(self) -> Dict[int, Set[int]]:
        """Transitive successors per block (function CFGs are small)."""
        reach: Dict[int, Set[int]] = {}
        for bid in self.cfg.blocks:
            seen: Set[int] = set()
            stack = list(self.cfg.block(bid).succ)
            while stack:
                nxt = stack.pop()
                if nxt in seen:
                    continue
                seen.add(nxt)
                stack.extend(self.cfg.block(nxt).succ)
            reach[bid] = seen
        return reach

    def _events_for(self, group: str, kind: str) -> List[Tuple[int, int, _Event]]:
        found: List[Tuple[int, int, _Event]] = []
        for bid in sorted(self.events):
            for idx, event in enumerate(self.events[bid]):
                if event.group == group and event.kind == kind:
                    found.append((bid, idx, event))
        return found

    def _leak_path(self, origin: _Origin) -> Optional[List[_Event]]:
        """Min-conditional-call path origin → exit avoiding releases.

        Returns the callpass events on the cheapest leaking path, or None
        if every normal path releases/returns/stores the handle.  Edges
        into exception handlers are not followed (see module docstring).
        """
        group = origin.group
        release_kinds = ("release", "return")
        block_release_at: Dict[int, List[int]] = {}
        block_callpasses: Dict[int, List[Tuple[int, _Event]]] = {}
        for bid, events in self.events.items():
            for idx, event in enumerate(events):
                if event.group != group:
                    continue
                if event.kind in release_kinds:
                    block_release_at.setdefault(bid, []).append(idx)
                elif event.kind == "callpass":
                    block_callpasses.setdefault(bid, []).append((idx, event))

        def normal_succ(bid: int) -> List[int]:
            return sorted(
                s for s in self.cfg.block(bid).succ
                if self.cfg.block(s).label != "except"
            )

        exit_id = self.cfg.exit.id
        # Start: the acquisition block, considering only events after the
        # acquisition index.
        # origin.index is the event-slot at the time of acquisition, so any
        # event recorded at that slot or later happened after the acquire.
        start = origin.block
        start_releases = [i for i in block_release_at.get(start, []) if i >= origin.index]
        start_passes = [
            (i, e) for i, e in block_callpasses.get(start, []) if i >= origin.index
        ]
        if start_releases:
            # The straight-line remainder of the acquisition block releases
            # before control can leave it: no leak on normal paths.
            return None
        # Dijkstra with cost = number of conditional call sites crossed.
        best: Dict[int, Tuple[int, List[_Event]]] = {
            start: (len(start_passes), [e for _i, e in start_passes])
        }
        frontier = [start]
        while frontier:
            frontier.sort(key=lambda b: best[b][0])
            bid = frontier.pop(0)
            cost, passes = best[bid]
            if bid == exit_id:
                return passes
            for nxt in normal_succ(bid):
                if nxt == start:
                    continue
                if block_release_at.get(nxt):
                    continue  # entering this block releases before any exit
                extra = [e for _i, e in block_callpasses.get(nxt, [])]
                new_cost = cost + len(extra)
                if nxt not in best or new_cost < best[nxt][0]:
                    best[nxt] = (new_cost, passes + extra)
                    if nxt not in frontier:
                        frontier.append(nxt)
        return None

    # -- result assembly -----------------------------------------------

    def _escape_mutations(self, reach: Dict[int, Set[int]]) -> List[Dict[str, object]]:
        found: List[Dict[str, object]] = []
        seen_keys: Set[Tuple[str, str, int, int]] = set()
        buffer_groups = sorted(
            {o.group for o in self.origins if o.kind == "buffer"}
        )
        for group in buffer_groups:
            origin = min(
                (o for o in self.origins if o.group == group and o.kind == "buffer"),
                key=lambda o: o.line,
            )
            mutations = self._events_for(group, "mutate")
            if not mutations:
                continue
            escapes = [
                (bid, idx, event, "definite")
                for bid, idx, event in self._events_for(group, "escape")
            ] + [
                (bid, idx, event, "call")
                for bid, idx, event in self._events_for(group, "callpass")
            ]
            for ebid, eidx, eev, ekind in escapes:
                for mbid, midx, mev in mutations:
                    ordered = (
                        mbid in reach.get(ebid, set())
                        or (mbid == ebid and midx > eidx)
                    )
                    if not ordered:
                        continue
                    key = (group, ekind, eev.line, mev.line)
                    if key in seen_keys:
                        continue
                    seen_keys.add(key)
                    found.append({
                        "var": origin.var,
                        "def_line": origin.line,
                        "def_desc": origin.desc,
                        "escape": {
                            "line": eev.line,
                            "col": eev.col,
                            "desc": eev.desc,
                            "kind": ekind,
                            "callee": eev.callee,
                            "arg": eev.arg,
                        },
                        "mutation": {"line": mev.line, "desc": mev.desc},
                    })
                    break  # one mutation witness per escape site is enough
        found.sort(key=lambda c: (c["def_line"], c["escape"]["line"]))  # type: ignore[index]
        return found

    def _leaks(self) -> List[Dict[str, object]]:
        found: List[Dict[str, object]] = []
        seen_groups: Set[str] = set()
        for origin in sorted(
            (o for o in self.origins if o.kind.startswith("handle:")),
            key=lambda o: (o.line, o.var),
        ):
            if origin.group in seen_groups:
                continue
            seen_groups.add(origin.group)
            passes = self._leak_path(origin)
            if passes is None:
                continue
            found.append({
                "var": origin.var,
                "kind": origin.kind.split(":", 1)[1],
                "line": origin.line,
                "desc": origin.desc,
                "sites": [
                    {"line": e.line, "col": e.col, "callee": e.callee,
                     "arg": e.arg}
                    for e in passes
                ],
            })
        return found

    def _param_summaries(self) -> Tuple[List[str], List[str]]:
        escapes: Set[str] = set()
        releases: Set[str] = set()
        entry = self.cfg.entry.id
        param_origins = [
            o for o in self.origins
            if o.block == entry and o.index == -1 and o.var in self.param_names
        ]
        for origin in param_origins:
            if self._events_for(origin.group, "escape"):
                escapes.add(origin.var)
            if self._events_for(origin.group, "release"):
                releases.add(origin.var)
        return sorted(escapes), sorted(releases)

    def run(self) -> FunctionFlow:
        self._collect_params()
        self._collect_aliases()
        self._seed_params()
        self._scan()
        reach = self._reach()
        param_escapes, param_releases = self._param_summaries()
        flow: FunctionFlow = {}
        escape_mutations = self._escape_mutations(reach)
        if escape_mutations:
            flow["escape_mutations"] = escape_mutations
        leaks = self._leaks()
        if leaks:
            flow["leaks"] = leaks
        if param_escapes or param_releases:
            flow["params"] = list(self.param_names)
        if param_escapes:
            flow["param_escapes"] = param_escapes
        if param_releases:
            flow["param_releases"] = param_releases
        return flow


def analyze_function(func: ast.AST) -> FunctionFlow:
    """Run the per-function dataflow pass; returns a JSON-ready flow dict.

    Empty keys are omitted, so a boring function yields ``{}`` and costs
    nothing in the summary cache.
    """
    return _FunctionAnalyzer(func).run()
