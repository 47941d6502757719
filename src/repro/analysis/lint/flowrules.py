"""Dataflow rules RL013-RL014: what the CFG layer sees that call graphs miss.

These rules consume the per-function flow facts that
:func:`repro.analysis.lint.dataflow.analyze_function` stored in each
:class:`~repro.analysis.lint.symbols.ModuleSummary` — they are
:class:`~repro.analysis.lint.engine.SummaryRule` subclasses, so warm cache
runs drive them without re-parsing a single file.

Conditional events (a tracked value passed to a call) are resolved *here*,
one call deep: the event's ``(line, col)`` is matched against the resolved
call graph, and the callee's ``param_escapes`` / ``param_releases``
summary decides whether the event is an escape / a release.  An
unresolved callee (stdlib, third party) is treated asymmetrically by
design: it never *proves* an escape (RL013 stays quiet) and it always
*may* release (RL014 stays quiet) — both choices keep the gating rules
precise at the cost of recall, which is the right trade for a gate.

========  ==============================================================
RL013     escape-then-mutate: a wire buffer/bytearray mutated in place
          after escaping into a cache/CS entry/ledger/attribute or a
          shard boundary (forwarding plane + packet codec).  The
          copy-then-patch idiom (``patched = bytearray(pkt.wire)`` …
          mutate … ``bytes(patched)``) is *proven* clean: ``bytes(x)``
          is a copy, not an alias, and mutation-before-escape never
          matches.
RL014     resource leak: a handle from ``open``/``Pipe``/``Popen``/
          ``lock.acquire()`` with a normal-exit CFG path that neither
          releases it, returns it, nor stores it away (everywhere,
          relaxed profile included; ``with`` satisfies trivially).
========  ==============================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Tuple

from repro.analysis.lint.effects import FORWARDING_PLANE_FILES
from repro.analysis.lint.engine import Finding, SummaryRule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.lint.callgraph import ProjectIndex
    from repro.analysis.lint.engine import ModuleRecord

__all__ = [
    "EscapeThenMutateRule",
    "ResourceLeakRule",
    "flow_rules",
]


def _resolve_site(
    index: "ProjectIndex", key: str, func: str, line: int, col: int
) -> Optional[str]:
    """The callee qualname resolved at a recorded call site, or None."""
    edges = index.resolved.get(key, {}).get(func, [])
    for callee, edge_line, edge_col in edges:
        if edge_line == line and edge_col == col:
            return callee
    return None


def _callee_flow(index: "ProjectIndex", callee: str) -> Tuple[Optional[dict], str]:
    """(flow dict, local qualname) for a resolved callee, if summarised."""
    entry = index.functions.get(callee)
    if entry is None:
        return None, ""
    key, local, _line = entry
    summary = index.summaries.get(key)
    if summary is None:
        return None, local
    return summary.flow.get(local, {}), local


def _param_matches(flow: dict, local: str, arg: object, summary_key: str) -> bool:
    """Does the argref land on a summarised parameter name in ``summary_key``?

    ``summary_key`` is ``"param_escapes"`` or ``"param_releases"``.  When
    the position cannot be mapped (nested/starred arg, no params list),
    fall back to "any summarised param" — may-semantics.
    """
    names = flow.get(summary_key, [])
    if not names:
        return False
    params = flow.get("params", [])
    if isinstance(arg, str):
        return arg in names
    if isinstance(arg, int) and params:
        # Method receivers: a leading self/cls is not passed explicitly.
        offset = 1 if "." in local and params[:1] in (["self"], ["cls"]) else 0
        position = arg + offset
        if 0 <= position < len(params):
            return params[position] in names
    return True  # unmappable: any summarised param may be the one


def _hop(function: str, path: str, line: int) -> dict:
    return {"function": function, "path": path, "line": line}


class EscapeThenMutateRule(SummaryRule):
    """RL013: in-place mutation of a buffer after it escaped."""

    id = "RL013"
    title = "no in-place mutation of an escaped wire buffer"
    rationale = (
        "a buffer stored in a cache/CS/ledger or handed to a shard is shared; "
        "patching it afterwards corrupts every future reader"
    )
    #: The forwarding plane plus the codec: the copy-then-patch idiom in
    #: packet.py is in scope precisely so it is *proven* clean, not skipped.
    scope_files = FORWARDING_PLANE_FILES + ("/repro/ndn/packet.py",)

    def check_summaries(
        self, records: Sequence["ModuleRecord"], index: "ProjectIndex"
    ) -> Iterator[Finding]:
        for record in records:
            summary = record.summary
            if summary is None:
                continue
            for func in sorted(summary.flow):
                for candidate in summary.flow[func].get("escape_mutations", []):
                    escape = candidate["escape"]
                    if escape["kind"] == "call":
                        callee = _resolve_site(
                            index, summary.key, func,
                            escape["line"], escape["col"],
                        )
                        if callee is None:
                            continue  # unresolved call proves nothing
                        flow, local = _callee_flow(index, callee)
                        if not flow or not _param_matches(
                            flow, local, escape.get("arg"), "param_escapes"
                        ):
                            continue
                        how = f"escapes via {callee}(...)"
                    else:
                        how = escape["desc"]
                    mutation = candidate["mutation"]
                    finding = Finding(
                        rule=self.id,
                        path=record.display,
                        line=mutation["line"],
                        col=0,
                        message=(
                            f"buffer {candidate['var']!r} "
                            f"({candidate['def_desc']}, line "
                            f"{candidate['def_line']}) {how} at line "
                            f"{escape['line']} and is mutated in place at "
                            f"line {mutation['line']} ({mutation['desc']}); "
                            "mutate before publishing, or copy first"
                        ),
                    )
                    finding.chain = [
                        _hop(f"{summary.key}.{func}", record.display,
                             candidate["def_line"]),
                        _hop(f"escape: {how}", record.display, escape["line"]),
                        _hop(f"mutation: {mutation['desc']}", record.display,
                             mutation["line"]),
                    ]
                    yield finding


class ResourceLeakRule(SummaryRule):
    """RL014: a handle with a normal-exit path that never releases it."""

    id = "RL014"
    title = "no leaked handles (open/Pipe/Popen/acquire)"
    rationale = (
        "an unclosed pipe or file survives as long as the process; under a "
        "worker pool that is a fd-exhaustion countdown"
    )

    def check_summaries(
        self, records: Sequence["ModuleRecord"], index: "ProjectIndex"
    ) -> Iterator[Finding]:
        for record in records:
            summary = record.summary
            if summary is None:
                continue
            for func in sorted(summary.flow):
                for leak in summary.flow[func].get("leaks", []):
                    absolved = False
                    crossed: list[dict] = []
                    for site in leak["sites"]:
                        callee = _resolve_site(
                            index, summary.key, func, site["line"], site["col"]
                        )
                        if callee is None:
                            # Unknown callee may assume ownership (e.g. a
                            # stdlib wrapper); don't gate on a guess.
                            absolved = True
                            break
                        flow, local = _callee_flow(index, callee)
                        if flow and _param_matches(
                            flow, local, site.get("arg"), "param_releases"
                        ):
                            absolved = True
                            break
                        crossed.append(
                            _hop(f"passed to {callee}(...) which never "
                                 "releases it",
                                 index.display_of_function(callee) or "",
                                 site["line"])
                        )
                    if absolved:
                        continue
                    finding = Finding(
                        rule=self.id,
                        path=record.display,
                        line=leak["line"],
                        col=0,
                        message=(
                            f"handle {leak['var']!r} from {leak['desc']} has "
                            "a path to function exit that never closes it; "
                            "release it, return it, store it, or use 'with'"
                        ),
                    )
                    finding.chain = (
                        [_hop(f"{summary.key}.{func}: {leak['desc']}",
                              record.display, leak["line"])]
                        + crossed
                        + [_hop("function exit without release",
                                record.display, leak["line"])]
                    )
                    yield finding


def flow_rules() -> list[SummaryRule]:
    """RL013-RL014, in rule-id order."""
    return [EscapeThenMutateRule(), ResourceLeakRule()]
