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
                  ``Interest``/``Data`` construction)
SET_ITERATION     iterates a set display/constructor (hash-seed order)
========  =================================================================

The classifiers below are the one sink table: RL009–RL011 report every
site they classify inside their own scope at the sink line, and follow
the same sites across the call graph to the boundary call.  Call targets
and attribute chains reach the classifiers already resolved through the
module's imports, so ``from time import sleep`` / ``import time as t``
spell the same sink as ``time.sleep``.

Direct effects are classified per AST site while the module summary is
built (:mod:`repro.analysis.lint.symbols`); :func:`propagate` then closes
the sets over the project call graph to a fixpoint, recording for each
``(function, effect)`` a *witness* — either the direct sink site or the
call edge the effect arrived through — from which
:func:`witness_chain` reconstructs a full ``caller → … → sink`` path for
finding messages.

Sanctioned sources are *barriers*: ``repro.sim.rng`` is the project's
seeded entropy/clock authority, so its nondeterminism effects never
propagate to callers (exempt by design, as it is from RL010), and the codec
internals in ``repro/ndn/packet.py`` never count as decode sinks — the
contract polices who *asks* for a materialisation, not the code that
implements it.
"""

from __future__ import annotations

import ast
from typing import Iterable, Mapping, Optional, Sequence

__all__ = [
    "BLOCKS",
    "WALL_CLOCK",
    "AMBIENT_ENTROPY",
    "WIRE_DECODE",
    "SET_ITERATION",
    "ALL_EFFECTS",
    "EFFECT_BARRIERS",
    "FORWARDING_PLANE_FILES",
    "HOT_LOOP_FILES",
    "DETERMINISM_DIRS",
    "DETERMINISM_EXEMPT_FILES",
    "EffectSite",
    "classify_call",
    "classify_attribute",
    "classify_import",
    "classify_iteration",
    "propagate",
    "witness_chain",
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

#: Modules whose listed effects are sanctioned by design and therefore
#: stop at the module boundary instead of propagating to callers.
EFFECT_BARRIERS: dict[str, frozenset[str]] = {
    "/repro/sim/rng.py": frozenset({WALL_CLOCK, AMBIENT_ENTROPY, SET_ITERATION}),
}

#: Modules a transiting packet crosses (RL011's scope).
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

#: Engine + dispatch-path modules (RL009's scope).
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

#: Determinism scope (RL010's).  The workload generators
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
_ENTROPY_CALLS = frozenset({"os.urandom", "uuid.uuid1", "uuid.uuid4"})

#: Modules every attribute of which is ambient entropy; importing one is
#: a sink too.
_ENTROPY_MODULES = frozenset({"random", "secrets"})

#: Modules every attribute of which may block; importing one is a sink
#: too.
_BLOCKING_MODULES = frozenset({"socket", "subprocess"})

_PACKET_TYPES = frozenset({"Interest", "Data"})


class EffectSite:
    """One direct effect occurrence inside a function body."""

    __slots__ = ("effect", "line", "col", "desc")

    def __init__(self, effect: str, line: int, col: int, desc: str) -> None:
        self.effect = effect
        self.line = line
        self.col = col
        self.desc = desc


def classify_attribute(chain: str) -> Optional[tuple[str, str]]:
    """Classify a dotted attribute chain as ``(effect, description)``."""
    if chain == "time.sleep":
        return BLOCKS, "time.sleep"
    root = chain.split(".")[0]
    if root in _BLOCKING_MODULES:
        return BLOCKS, chain
    if chain in _WALL_CLOCK_CHAINS:
        return WALL_CLOCK, chain
    if chain in _ENTROPY_CALLS:
        return AMBIENT_ENTROPY, chain
    if root in _ENTROPY_MODULES or ".random." in chain:
        return AMBIENT_ENTROPY, chain
    return None


def classify_import(module: str) -> Optional[tuple[str, str]]:
    """Classify importing ``module``: entropy and blocking modules are sinks."""
    root = module.split(".")[0]
    if root in _ENTROPY_MODULES:
        return AMBIENT_ENTROPY, f"import of {module}"
    if root in _BLOCKING_MODULES:
        return BLOCKS, f"import of {module}"
    return None


def _is_packet_type(parts: Sequence[str]) -> bool:
    """A bare packet-type name, or one that resolves into the project."""
    return bool(parts) and parts[-1] in _PACKET_TYPES and (
        len(parts) == 1 or parts[0] == "repro"
    )


def classify_call(
    node: ast.Call, callee: Optional[str], module_path: str
) -> Optional[tuple[str, str]]:
    """Classify decode/construction calls (the WIRE_DECODE sink forms).

    ``callee`` is the call target's dotted name resolved through the
    module's imports, or ``None`` when the target is not a plain chain.
    """
    if any(module_path.endswith(s) for s in _DECODE_EXEMPT_FILES):
        return None
    parts = callee.split(".") if callee else []
    if _is_packet_type(parts):
        return WIRE_DECODE, f"{parts[-1]}(...)"
    if parts[-1:] == ["decode"] and _is_packet_type(parts[:-1]):
        return WIRE_DECODE, f"{parts[-2]}.decode(...)"
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr == "decode"
        and not node.args
        and not node.keywords
    ):
        return WIRE_DECODE, ".decode()"
    return None


def classify_iteration(iter_node: ast.expr) -> Optional[tuple[str, str]]:
    """Classify direct set iteration (the hash-order sink form)."""
    if isinstance(iter_node, ast.Set):
        return SET_ITERATION, "iteration over a set display"
    if (
        isinstance(iter_node, ast.Call)
        and isinstance(iter_node.func, ast.Name)
        and iter_node.func.id in ("set", "frozenset")
    ):
        return SET_ITERATION, f"iteration over {iter_node.func.id}(...)"
    return None


class _Witness:
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
) -> dict[str, dict[str, _Witness]]:
    """Close per-function effect sets over the call graph to a fixpoint.

    ``direct`` maps a function's qualified name to its direct sink sites,
    ``edges`` maps caller -> [(callee, line, col)], and ``barred`` maps a
    function to effects that must not escape it (sanctioned-source
    barriers).  Returns ``{function: {effect: _Witness}}``.  Witnesses are
    assigned the first time an effect reaches a function in a
    breadth-first sweep, so recorded chains are shortest-first and the
    via-pointers can never cycle.
    """
    effects: dict[str, dict[str, _Witness]] = {}
    functions = sorted(set(direct) | set(edges))
    for name in functions:
        effects[name] = {}
        for site in direct.get(name, ()):
            if site.effect in barred.get(name, frozenset()):
                continue
            effects[name].setdefault(site.effect, _Witness("direct", site=site))
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
                    caller_effects[effect] = _Witness(
                        "via", callee=callee, line=line, col=col
                    )
                    changed = True
    return effects


def witness_chain(
    effects: Mapping[str, Mapping[str, _Witness]], start: str, effect: str
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


def _short_name(qualname: str) -> str:
    """``repro.ndn.shard.ShardedForwarder.resize`` -> ``shard.ShardedForwarder.resize``."""
    parts = qualname.split(".")
    for index, part in enumerate(parts):
        if part and (part[0].isupper() or index == len(parts) - 1):
            module_part = parts[index - 1] if index > 0 else parts[0]
            return ".".join([module_part] + parts[index:])
    return qualname


def render_chain(chain: Iterable[str], sink_desc: str) -> str:
    """``engine.run → shard._drain → time.sleep`` display form."""
    hops = [_short_name(name) for name in chain]
    hops.append(sink_desc)
    return " → ".join(hops)
