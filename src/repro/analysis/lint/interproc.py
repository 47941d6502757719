"""Interprocedural rules: RL009-RL011 effect invariants, RL012 dead exports.

Each effect rule owns one invariant over one protected scope and reports
it in two places:

* **at the sink** — a sink written inside the scope (``time.sleep`` in the
  engine, ``import random`` in ``repro.sim``) is a finding on its own
  line, with an empty chain;
* **at the boundary call site** — the line inside the scope that calls
  out of it into a helper that reaches a sink, with the full witness
  chain (``engine.run → shard._drain → time.sleep``) in the message and,
  for JSON consumers, a structured ``chain`` on the finding.

One finding per boundary crossing: an in-scope function calling another
in-scope function is never flagged (the deeper module reports its own
sink), so a violation reachable from many entry points produces one
finding at each distinct escape line, not a cascade along every path.

Waivers compose in two places: a waiver on the boundary line suppresses
that crossing, while a waiver naming the rule *on the sink line*
sanctions the sink — one waived finding there, and nothing propagates to
any caller (see :data:`repro.analysis.lint.symbols.RULE_FOR_EFFECT`).

========  ==============================================================
RL009     nothing in, or reachable from, the engine run loop or the
          forwarding pipeline may block the OS thread
RL010     no wall clock, ambient entropy or set iteration in, or
          reachable from, ``repro.sim``/``repro.ndn``/``repro.workload``/
          ``repro.chaos`` (``repro.sim.rng`` stays the sanctioned source)
RL011     no packet materialisation in, or reachable from, the
          forwarding plane (endpoints in ``client.py`` and the codec in
          ``packet.py`` are the sanctioned decode sites)
RL012     dead exports: exported defs no other scanned module names
          (identifier scan; re-exports and method dispatch do not count)
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

__all__ = ["interprocedural_rules"]

_EFFECT_LABEL = {
    BLOCKS: "blocking call",
    WALL_CLOCK: "wall-clock read",
    AMBIENT_ENTROPY: "ambient entropy",
    SET_ITERATION: "hash-order set iteration",
    WIRE_DECODE: "packet materialisation",
}


class _TransitiveEffectRule(SummaryRule):
    """Shared driver: flag in-scope sinks, and boundary calls whose callee
    carries an effect."""

    #: Effects this rule polices (checked in sorted order for determinism).
    effects: frozenset[str] = frozenset()
    #: Path suffixes whose functions are sanctioned targets by design.
    exempt_targets: tuple[str, ...] = ()
    #: Human description of the protected scope for messages.
    scope_label: str = ""
    #: What to do instead, appended to an in-scope sink's message.
    remedy: str = ""

    def _target_exempt(self, path: str) -> bool:
        return any(path.endswith(suffix) for suffix in self.exempt_targets)

    def check_summaries(
        self, records: Sequence["ModuleRecord"], index: "ProjectIndex"
    ) -> Iterator[Finding]:
        for record in records:
            summary = record.summary
            if summary is None:
                continue
            for func in sorted(summary.effect_sites):
                for site in summary.effect_sites[func]:
                    if site.effect in self.effects:
                        yield Finding(
                            rule=self.id,
                            path=record.display,
                            line=site.line,
                            col=site.col,
                            message=(
                                f"{_EFFECT_LABEL[site.effect]} {site.desc} in "
                                f"{self.scope_label}; {self.remedy}"
                            ),
                            chain=[],
                        )
            yield from self._boundary_findings(record, index)

    def _boundary_findings(
        self, record: "ModuleRecord", index: "ProjectIndex"
    ) -> Iterator[Finding]:
        summary = record.summary
        for caller_local in sorted(index.calls_from(summary.key)):
            edges = index.calls_from(summary.key)[caller_local]
            for callee, line, col in edges:
                callee_path = index.path_of_function(callee)
                if callee_path is None:
                    continue
                if self.applies_to(callee_path):
                    continue  # in-scope callee: its module reports its sinks
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


class _TransitiveBlockingRule(_TransitiveEffectRule):
    """RL009: no blocking in, or reachable from, the engine/dispatch hot loops."""

    id = "RL009"
    title = "no blocking in or reachable from hot loops"
    rationale = "a blocked dispatcher stalls every simulated process, inline or via a helper"
    scope_files = HOT_LOOP_FILES
    effects = frozenset({BLOCKS})
    scope_label = "a hot loop"
    remedy = "hot loops never block the OS thread"


class _TransitiveDeterminismRule(_TransitiveEffectRule):
    """RL010: no wall clock/entropy/set iteration in, or reachable from, sim/ndn."""

    id = "RL010"
    title = "determinism: engine clocks and seeded RNG only"
    rationale = "sim runs must be bit-reproducible across hosts and seeds"
    scope_dirs = DETERMINISM_DIRS
    exclude_files = DETERMINISM_EXEMPT_FILES
    effects = frozenset({WALL_CLOCK, AMBIENT_ENTROPY, SET_ITERATION})
    #: repro.sim.rng is the sanctioned clock/entropy authority.
    exempt_targets = DETERMINISM_EXEMPT_FILES
    scope_label = "deterministic sim/ndn code"
    remedy = (
        "clocks come from the engine, entropy from repro.sim.rng, and sets "
        "are sorted before iteration"
    )


class _TransitiveDecodeRule(_TransitiveEffectRule):
    """RL011: no packet materialisation in, or reachable from, the forwarding plane."""

    id = "RL011"
    title = "no decode on or reachable from the forwarding plane"
    rationale = "transit is bytes-only; decoding belongs to endpoints"
    scope_files = FORWARDING_PLANE_FILES
    effects = frozenset({WIRE_DECODE})
    #: Endpoints decode by design (the face handoff is the architecture),
    #: and the codec implements decode rather than requesting it.
    exempt_targets = ("/repro/ndn/client.py", "/repro/ndn/packet.py")
    scope_label = "the forwarding plane"
    remedy = "hand the wire buffer on instead"


class _DeadExportRule(SummaryRule):
    """RL012: exported defs nothing else in the scanned tree references.

    A name in ``__all__`` that the module itself defines is live only if
    another scanned module names it: imports it, calls or constructs it,
    or reads it as an attribute.  Three things do not count:

    * a package ``__init__`` importing it (a re-export is not a use);
    * a call that reaches one of a class's methods through
      class-hierarchy dispatch or the method-name fallback — a class is
      live only where code outside its module names it;
    * its own module naming it.

    One thing does: a class named in a parameter or return annotation of
    a live export of its module is live, because callers hold it through
    that export.  For a live class, the annotations read are its field
    annotations (a dataclass's ``__init__`` parameters) and those of
    every method that is not ``_private`` (dunders included).

    A helper only its own module uses is renamed ``_private`` (RL008
    then no longer asks for it in ``__all__``); one nothing uses is
    deleted.  The tier-1 gate indexes ``src/``, ``benchmarks/`` and
    ``examples/`` and gates on ``src/``, so an export that only tests
    use is a finding too.
    """

    id = "RL012"
    title = "dead exports"
    rationale = "an export nobody references documents an API that no longer exists"

    def check_summaries(
        self, records: Sequence["ModuleRecord"], index: "ProjectIndex"
    ) -> Iterator[Finding]:
        for record in records:
            summary = record.summary
            if summary is None or not summary.exports:
                continue
            defined: dict[str, int] = {}
            for name in summary.exports:
                if name in summary.functions:
                    defined[name] = summary.functions[name]
                elif name in summary.classes:
                    defined[name] = summary.classes[name]["line"]
            live = {
                name for name in defined
                if index.referenced_elsewhere(name, summary.key)
            }
            frontier = sorted(live)
            while frontier:
                named: set[str] = set()
                for name in frontier:
                    named |= self._api_annotations(summary, name)
                frontier = sorted(
                    name for name in named
                    if name in defined and name in summary.classes and name not in live
                )
                live.update(frontier)
            for name, line in defined.items():
                if name in live:
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
                )

    @staticmethod
    def _api_annotations(summary, name: str) -> set[str]:
        """Names in the annotations of live export ``name``: a function's
        own, or a class's field annotations and those of its methods that
        are not ``_private``."""
        named = set(summary.annotations.get(name, set()))
        for method in summary.classes.get(name, {}).get("methods", {}):
            if method.startswith("__") or not method.startswith("_"):
                named |= summary.annotations.get(f"{name}.{method}", set())
        return named


def interprocedural_rules() -> list[SummaryRule]:
    """RL009-RL012, in rule-id order."""
    return [
        _TransitiveBlockingRule(),
        _TransitiveDeterminismRule(),
        _TransitiveDecodeRule(),
        _DeadExportRule(),
    ]
