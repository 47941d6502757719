"""Interprocedural rules: RL009-RL011 transitive invariants, RL012 dead exports.

PR 6's line-local rules see a ``time.sleep`` *written in* the engine; they
cannot see one *called from* it through a helper two modules away.  These
rules close that hole: each extends a line-local contract across the
project call graph, firing at the **boundary call site** — the line inside
the protected scope that calls out of it — with the full witness chain
(``engine.run → shard._drain → time.sleep``) in the message and, for JSON
consumers, a structured ``chain`` on the finding.

One finding per boundary crossing: an in-scope function calling another
in-scope function is never flagged (the deeper module owns its own
boundary), so a violation reachable from many entry points produces one
finding at each distinct escape line, not a cascade along every path.

Waivers compose in two places: a waiver on the boundary line suppresses
that crossing, while a waiver naming the transitive rule *on the sink
line* sanctions the sink for every caller (see
:data:`repro.analysis.lint.symbols.TRANSITIVE_RULE_FOR_EFFECT`).

========  ==============================================================
RL009     extends RL003: nothing reachable from the engine run loop or
          the forwarding pipeline may block the OS thread
RL010     extends RL002: no wall clock, ambient entropy or set iteration
          reachable from ``repro.sim``/``repro.ndn`` through helpers in
          other packages (``repro.sim.rng`` stays the sanctioned source)
RL011     extends RL001: no packet materialisation reachable from the
          forwarding plane (endpoints in ``client.py`` and the codec in
          ``packet.py`` are the sanctioned decode sites)
RL012     advisory: exported defs with no reference anywhere else in the
          scanned tree (call graph + identifier scan)
========  ==============================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

from repro.analysis.lint.effects import (
    AMBIENT_ENTROPY,
    BLOCKS,
    DETERMINISM_DIRS,
    DETERMINISM_EXEMPT_FILES,
    FORWARDING_PLANE_FILES,
    HOT_LOOP_FILES,
    SET_ITERATION,
    WALL_CLOCK,
    WIRE_DECODE,
    render_chain,
    witness_chain,
)
from repro.analysis.lint.engine import Finding, SummaryRule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.lint.callgraph import ProjectIndex
    from repro.analysis.lint.engine import ModuleRecord

__all__ = [
    "TransitiveEffectRule",
    "TransitiveBlockingRule",
    "TransitiveDeterminismRule",
    "TransitiveDecodeRule",
    "DeadExportRule",
    "interprocedural_rules",
]

_EFFECT_LABEL = {
    BLOCKS: "blocking call",
    WALL_CLOCK: "wall-clock read",
    AMBIENT_ENTROPY: "ambient entropy",
    SET_ITERATION: "hash-order set iteration",
    WIRE_DECODE: "packet materialisation",
}


class TransitiveEffectRule(SummaryRule):
    """Shared driver: flag boundary calls whose callee carries an effect."""

    #: Effects this rule polices (checked in sorted order for determinism).
    effects: frozenset[str] = frozenset()
    #: Path suffixes whose functions are sanctioned targets by design.
    exempt_targets: tuple[str, ...] = ()
    #: Human description of the protected scope for messages.
    scope_label: str = ""

    def _target_exempt(self, path: str) -> bool:
        return any(path.endswith(suffix) for suffix in self.exempt_targets)

    def check_summaries(
        self, records: Sequence["ModuleRecord"], index: "ProjectIndex"
    ) -> Iterator[Finding]:
        for record in records:
            summary = record.summary
            if summary is None:
                continue
            for caller_local in sorted(index.calls_from(summary.key)):
                edges = index.calls_from(summary.key)[caller_local]
                for callee, line, col in edges:
                    callee_path = index.path_of_function(callee)
                    if callee_path is None:
                        continue
                    if self.applies_to(callee_path):
                        continue  # in-scope callee: its module owns the boundary
                    if self._target_exempt(callee_path):
                        continue
                    carried = sorted(
                        self.effects & set(index.effects.get(callee, ()))
                    )
                    if not carried:
                        continue
                    effect = carried[0]
                    chain, sink = witness_chain(index.effects, callee, effect)
                    if sink is None:
                        continue
                    caller_qual = f"{summary.key}.{caller_local}"
                    full_chain = [caller_qual] + chain
                    sink_display = index.display_of_function(chain[-1]) or callee_path
                    finding = Finding(
                        rule=self.id,
                        path=record.display,
                        line=line,
                        col=col,
                        message=(
                            f"{_EFFECT_LABEL[effect]} reachable from "
                            f"{self.scope_label}: "
                            f"{render_chain(full_chain, sink.desc)} "
                            f"({sink_display}:{sink.line})"
                        ),
                    )
                    finding.chain = [
                        {
                            "function": qual,
                            "path": index.display_of_function(qual) or "",
                            "line": index.line_of_function(qual),
                        }
                        for qual in full_chain
                    ] + [
                        {
                            "function": sink.desc,
                            "path": sink_display,
                            "line": sink.line,
                        }
                    ]
                    yield finding


class TransitiveBlockingRule(TransitiveEffectRule):
    """RL009: no blocking reachable from the engine/dispatch hot loops."""

    id = "RL009"
    title = "no blocking reachable from hot loops (transitive RL003)"
    rationale = "a helper that sleeps stalls the dispatcher exactly like inline code"
    scope_files = HOT_LOOP_FILES
    effects = frozenset({BLOCKS})
    scope_label = "a hot loop"


class TransitiveDeterminismRule(TransitiveEffectRule):
    """RL010: no wall clock/entropy/set iteration reachable from sim/ndn."""

    id = "RL010"
    title = "no nondeterminism reachable from sim/ndn (transitive RL002)"
    rationale = "a helper in another package breaks determinism as surely as inline code"
    scope_dirs = DETERMINISM_DIRS
    exclude_files = DETERMINISM_EXEMPT_FILES
    effects = frozenset({WALL_CLOCK, AMBIENT_ENTROPY, SET_ITERATION})
    #: repro.sim.rng is the sanctioned clock/entropy authority.
    exempt_targets = DETERMINISM_EXEMPT_FILES
    scope_label = "deterministic sim/ndn code"


class TransitiveDecodeRule(TransitiveEffectRule):
    """RL011: no packet materialisation reachable from the forwarding plane."""

    id = "RL011"
    title = "no decode reachable from the forwarding plane (transitive RL001)"
    rationale = "a decoding helper breaks zero-copy exactly like an inline .decode()"
    scope_files = FORWARDING_PLANE_FILES
    effects = frozenset({WIRE_DECODE})
    #: Endpoints decode by design (the face handoff is the architecture),
    #: and the codec implements decode rather than requesting it.
    exempt_targets = ("/repro/ndn/client.py", "/repro/ndn/packet.py")
    scope_label = "the forwarding plane"


class DeadExportRule(SummaryRule):
    """RL012 (advisory): exported defs nothing else in the tree references.

    A name in ``__all__`` that is defined in the module (imports-only
    re-exports are skipped) and neither mentioned nor called from any
    other scanned module is reported as advisory — it never fails the
    run, because the scanned tree is not the whole world (tests and
    downstream users are legitimate callers) — but the report is the
    place to notice an API that quietly stopped having users.
    """

    id = "RL012"
    title = "dead exports (advisory)"
    rationale = "an export nobody references documents an API that no longer exists"
    advisory = True

    def check_summaries(
        self, records: Sequence["ModuleRecord"], index: "ProjectIndex"
    ) -> Iterator[Finding]:
        for record in records:
            summary = record.summary
            if summary is None or not summary.exports:
                continue
            foreign_calls = index.incoming_foreign_edges(summary.key)
            for name in summary.exports:
                line = summary.functions.get(name)
                if line is None:
                    info = summary.classes.get(name)
                    line = info["line"] if info is not None else None
                if line is None:
                    continue  # re-export or constant: not a local def
                if index.referenced_elsewhere(name, summary.key):
                    continue
                called = name in foreign_calls or any(
                    local == name or local.startswith(f"{name}.")
                    for local in foreign_calls
                )
                if called:
                    continue
                yield Finding(
                    rule=self.id,
                    path=record.display,
                    line=line,
                    col=0,
                    message=(
                        f"dead export: {name!r} is in __all__ but nothing "
                        "else in the scanned tree references it"
                    ),
                    severity="advisory",
                )


def interprocedural_rules() -> list[SummaryRule]:
    """RL009-RL012, in rule-id order."""
    return [
        TransitiveBlockingRule(),
        TransitiveDeterminismRule(),
        TransitiveDecodeRule(),
        DeadExportRule(),
    ]
