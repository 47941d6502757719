"""Per-function effect lattice and the call-graph fixpoint.

The interprocedural layer reduces every function in the project to a small
effect set — the only facts the transitive rules need:

========  =================================================================
BLOCKS            may block the OS thread (``time.sleep``, sockets,
                  subprocess)
WALL_CLOCK        reads a wall clock (``time.time``/``monotonic``/
                  ``perf_counter``, ``datetime.now`` …)
AMBIENT_ENTROPY   draws ambient randomness (``random``/``secrets``
                  modules, ``os.urandom``, ``uuid1``/``uuid4``)
WIRE_DECODE       materialises a packet (zero-arg ``.decode()``,
                  ``Interest``/``Data``/``Nack`` construction)
SET_ITERATION     iterates a set display/constructor (hash-seed order)
========  =================================================================

The classifiers below are the one sink table: the line-local rules
RL001–RL003 flag what they classify directly, and the transitive rules
RL009–RL011 follow the same sites across the call graph.

Direct effects are classified per AST site while the module summary is
built (:mod:`repro.analysis.lint.symbols`); :func:`propagate` then closes
the sets over the project call graph to a fixpoint, recording for each
``(function, effect)`` a *witness* — either the direct sink site or the
call edge the effect arrived through — from which
:func:`witness_chain` reconstructs a full ``caller → … → sink`` path for
finding messages.

Sanctioned sources are *barriers*: ``repro.sim.rng`` is the project's
seeded entropy/clock authority, so its nondeterminism effects never
propagate to callers (exempt by design, mirroring RL002), and the codec
internals in ``repro/ndn/packet.py`` never count as decode sinks — the
contract polices who *asks* for a materialisation, not the code that
implements it.
"""

from __future__ import annotations

import ast
from typing import Iterable, Mapping, Optional, Sequence

from repro.analysis.lint.engine import dotted_name

__all__ = [
    "BLOCKS",
    "WALL_CLOCK",
    "AMBIENT_ENTROPY",
    "WIRE_DECODE",
    "SET_ITERATION",
    "ALL_EFFECTS",
    "EFFECT_BASE_RULE",
    "EFFECT_BARRIERS",
    "FORWARDING_PLANE_FILES",
    "HOT_LOOP_FILES",
    "DETERMINISM_DIRS",
    "DETERMINISM_EXEMPT_FILES",
    "ENTROPY_CALLS",
    "ENTROPY_MODULES",
    "BLOCKING_MODULES",
    "EffectSite",
    "Witness",
    "classify_call",
    "classify_attribute",
    "classify_iteration",
    "propagate",
    "witness_chain",
    "short_name",
    "render_chain",
]

BLOCKS = "BLOCKS"
WALL_CLOCK = "WALL_CLOCK"
AMBIENT_ENTROPY = "AMBIENT_ENTROPY"
WIRE_DECODE = "WIRE_DECODE"
SET_ITERATION = "SET_ITERATION"

ALL_EFFECTS = frozenset(
    {BLOCKS, WALL_CLOCK, AMBIENT_ENTROPY, WIRE_DECODE, SET_ITERATION}
)

#: The line-local rule that owns each effect's direct form.  A sink line
#: waived for its base rule (where that rule applies) is sanctioned and
#: does not propagate.
EFFECT_BASE_RULE: dict[str, str] = {
    BLOCKS: "RL003",
    WALL_CLOCK: "RL002",
    AMBIENT_ENTROPY: "RL002",
    SET_ITERATION: "RL002",
    WIRE_DECODE: "RL001",
}

#: Modules whose listed effects are sanctioned by design and therefore
#: stop at the module boundary instead of propagating to callers.
EFFECT_BARRIERS: dict[str, frozenset[str]] = {
    "/repro/sim/rng.py": frozenset({WALL_CLOCK, AMBIENT_ENTROPY, SET_ITERATION}),
}

#: Modules a transiting packet crosses (shared with RL001/RL011).
FORWARDING_PLANE_FILES: tuple[str, ...] = (
    "/repro/ndn/forwarder.py",
    "/repro/ndn/face.py",
    "/repro/ndn/shard.py",
    "/repro/ndn/strategy.py",
    "/repro/ndn/cs.py",
    "/repro/ndn/pit.py",
    "/repro/ndn/fib.py",
    "/repro/ndn/nametree.py",
)

#: Engine + dispatch-path modules (shared with RL003/RL009).
HOT_LOOP_FILES: tuple[str, ...] = (
    "/repro/sim/engine.py",
    "/repro/ndn/forwarder.py",
    "/repro/ndn/strategy.py",
    "/repro/ndn/face.py",
    "/repro/ndn/nametree.py",
    "/repro/ndn/cs.py",
    "/repro/ndn/pit.py",
    "/repro/ndn/fib.py",
)

#: Determinism scope (shared with RL002/RL010).  The workload generators
#: are in scope by design: their whole value is that a trace reproduces
#: from (seed, spec) alone, so wall clocks and ambient entropy are
#: statically barred there exactly as in the engine.  The chaos layer is
#: held to the same bar: a fault schedule must replay bit-identically
#: from (seed, spec), so its generators and driver get no ambient entropy
#: either.
DETERMINISM_DIRS: tuple[str, ...] = (
    "/repro/sim/",
    "/repro/ndn/",
    "/repro/workload/",
    "/repro/chaos/",
)
DETERMINISM_EXEMPT_FILES: tuple[str, ...] = ("/repro/sim/rng.py",)

#: The codec itself implements decode; its internals are not sinks.
_DECODE_EXEMPT_FILES: tuple[str, ...] = ("/repro/ndn/packet.py",)

_WALL_CLOCK_CHAINS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "date.today",
    }
)

#: Entropy drawn by one explicit call (as opposed to a whole module).
ENTROPY_CALLS = frozenset({"os.urandom", "uuid.uuid1", "uuid.uuid4"})

#: Modules every attribute of which is ambient entropy (RL002 also
#: flags importing them).
ENTROPY_MODULES = frozenset({"random", "secrets"})

#: Modules every attribute of which may block (RL003 also flags
#: importing them).
BLOCKING_MODULES = frozenset({"socket", "subprocess"})

_PACKET_TYPES = frozenset({"Interest", "Data", "Nack"})


class EffectSite:
    """One direct effect occurrence inside a function body."""

    __slots__ = ("effect", "line", "col", "desc")

    def __init__(self, effect: str, line: int, col: int, desc: str) -> None:
        self.effect = effect
        self.line = line
        self.col = col
        self.desc = desc

    def as_dict(self) -> dict:
        return {
            "effect": self.effect,
            "line": self.line,
            "col": self.col,
            "desc": self.desc,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "EffectSite":
        return cls(raw["effect"], raw["line"], raw["col"], raw["desc"])


def classify_attribute(chain: str) -> Optional[tuple[str, str]]:
    """Classify a dotted attribute chain as ``(effect, description)``."""
    if chain == "time.sleep":
        return BLOCKS, "time.sleep"
    root = chain.split(".")[0]
    if root in BLOCKING_MODULES:
        return BLOCKS, chain
    if chain in _WALL_CLOCK_CHAINS:
        return WALL_CLOCK, chain
    if chain in ENTROPY_CALLS:
        return AMBIENT_ENTROPY, chain
    if root in ENTROPY_MODULES or ".random." in chain:
        return AMBIENT_ENTROPY, chain
    return None


def classify_call(node: ast.Call, module_path: str) -> Optional[tuple[str, str]]:
    """Classify decode/construction call patterns (the RL001 sink forms)."""
    if any(module_path.endswith(s) for s in _DECODE_EXEMPT_FILES):
        return None
    func = node.func
    if isinstance(func, ast.Name) and func.id in _PACKET_TYPES:
        return WIRE_DECODE, f"{func.id}(...)"
    if isinstance(func, ast.Attribute) and func.attr == "decode":
        owner = dotted_name(func.value)
        if owner in _PACKET_TYPES:
            return WIRE_DECODE, f"{owner}.decode(...)"
        if not node.args and not node.keywords:
            return WIRE_DECODE, ".decode()"
    return None


def classify_iteration(iter_node: ast.expr) -> Optional[tuple[str, str]]:
    """Classify direct set iteration (the RL002 hash-order sink form)."""
    if isinstance(iter_node, ast.Set):
        return SET_ITERATION, "iteration over a set display"
    if (
        isinstance(iter_node, ast.Call)
        and isinstance(iter_node.func, ast.Name)
        and iter_node.func.id in ("set", "frozenset")
    ):
        return SET_ITERATION, f"iteration over {iter_node.func.id}(...)"
    return None


class Witness:
    """Why a function carries an effect: a direct sink or a call edge."""

    __slots__ = ("kind", "site", "callee", "line", "col")

    def __init__(
        self,
        kind: str,
        site: Optional[EffectSite] = None,
        callee: str = "",
        line: int = 0,
        col: int = 0,
    ) -> None:
        self.kind = kind  # "direct" | "via"
        self.site = site
        self.callee = callee
        self.line = line
        self.col = col


def propagate(
    direct: Mapping[str, Sequence[EffectSite]],
    edges: Mapping[str, Sequence[tuple[str, int, int]]],
    barred: Mapping[str, frozenset[str]],
) -> dict[str, dict[str, Witness]]:
    """Close per-function effect sets over the call graph to a fixpoint.

    ``direct`` maps a function's qualified name to its direct sink sites,
    ``edges`` maps caller -> [(callee, line, col)], and ``barred`` maps a
    function to effects that must not escape it (sanctioned-source
    barriers).  Returns ``{function: {effect: Witness}}``.  Witnesses are
    assigned the first time an effect reaches a function in a
    breadth-first sweep, so recorded chains are shortest-first and the
    via-pointers can never cycle.
    """
    effects: dict[str, dict[str, Witness]] = {}
    functions = sorted(set(direct) | set(edges))
    for name in functions:
        effects[name] = {}
        for site in direct.get(name, ()):
            if site.effect in barred.get(name, frozenset()):
                continue
            effects[name].setdefault(site.effect, Witness("direct", site=site))
    changed = True
    while changed:
        changed = False
        for caller in functions:
            caller_effects = effects[caller]
            blocked = barred.get(caller, frozenset())
            for callee, line, col in edges.get(caller, ()):
                callee_effects = effects.get(callee)
                if not callee_effects:
                    continue
                for effect in sorted(callee_effects):
                    if effect in caller_effects or effect in blocked:
                        continue
                    caller_effects[effect] = Witness(
                        "via", callee=callee, line=line, col=col
                    )
                    changed = True
    return effects


def witness_chain(
    effects: Mapping[str, Mapping[str, Witness]], start: str, effect: str
) -> tuple[list[str], Optional[EffectSite]]:
    """Follow via-pointers from ``start`` down to the direct sink.

    Returns the function chain (``start`` first) and the sink site, or
    ``(chain, None)`` if the trail dead-ends (defensive; witnesses built
    by :func:`propagate` always terminate).
    """
    chain = [start]
    current = start
    seen = {start}
    while True:
        witness = effects.get(current, {}).get(effect)
        if witness is None:
            return chain, None
        if witness.kind == "direct":
            return chain, witness.site
        if witness.callee in seen:  # defensive: malformed witness table
            return chain, None
        seen.add(witness.callee)
        chain.append(witness.callee)
        current = witness.callee


def short_name(qualname: str) -> str:
    """``repro.ndn.shard.ShardedForwarder.resize`` -> ``shard.ShardedForwarder.resize``."""
    parts = qualname.split(".")
    for index, part in enumerate(parts):
        if part and (part[0].isupper() or index == len(parts) - 1):
            module_part = parts[index - 1] if index > 0 else parts[0]
            return ".".join([module_part] + parts[index:])
    return qualname


def render_chain(chain: Iterable[str], sink_desc: str) -> str:
    """``engine.run → shard._drain → time.sleep`` display form."""
    hops = [short_name(name) for name in chain]
    hops.append(sink_desc)
    return " → ".join(hops)
