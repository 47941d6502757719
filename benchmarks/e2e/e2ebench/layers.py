"""Per-layer self time from a deterministic profile (stdlib ``cProfile``).

Every function under ``src/repro/`` maps to exactly one layer by module
path.  Time spent in anything else — C built-ins, the standard library,
numpy, ``repro/exceptions.py`` — is charged to the layer that called it:
directly when the caller is a layer function, otherwise in proportion to
how the caller's own time splits across layers.  Because every function's
inline time is handed out exactly once, the layer self times sum to the
profiled region; ``harness.layer_sum_ratio`` checks that against the wall
clock.
"""

from __future__ import annotations

import cProfile
import os
from collections import defaultdict

#: Module path under ``src/repro/`` (file or directory prefix) -> layer.
#: Longest prefix wins.
LAYER_OF_PATH = {
    "workload/": "workload",
    "ndn/client.py": "ndn.client",
    "ndn/face.py": "ndn.face",
    "sim/topology.py": "ndn.face",
    "ndn/forwarder.py": "ndn.forwarder",
    "ndn/cs.py": "ndn.cs",
    "ndn/pit.py": "ndn.pit",
    "ndn/fib.py": "ndn.fib",
    "ndn/nametree.py": "ndn.fib",
    "ndn/strategy.py": "ndn.strategy",
    "ndn/shard.py": "ndn.shard",
    "ndn/packet.py": "ndn.packet",
    "ndn/name.py": "ndn.packet",
    "ndn/tlv.py": "ndn.packet",
    "ndn/security.py": "ndn.packet",
    "ndn/segmentation.py": "ndn.packet",
    "ndn/routing.py": "ndn.routing",
    "core/client.py": "core.client",
    "core/workflow.py": "core.client",
    "core/gateway.py": "core.gateway",
    "core/caching.py": "core.gateway",
    "core/jobs.py": "core.gateway",
    "core/predictor.py": "core.gateway",
    "core/": "core.service",  # service, spec, naming, validation, applications, ...
    "core/overlay.py": "core.overlay",
    "core/cluster_endpoint.py": "core.overlay",
    "core/framework.py": "core.overlay",
    "core/baseline.py": "core.overlay",
    "core/placement.py": "core.overlay",
    "cluster/": "cluster",
    "datalake/": "datalake",
    "genomics/": "genomics",
    "sim/": "sim.engine",  # engine, resources, rng
    "sim/trace.py": "sim.trace",
    "sim/metrics.py": "sim.metrics",
    "chaos/": "chaos",
}
_PREFIXES = sorted(LAYER_OF_PATH, key=len, reverse=True)
_REPRO = os.sep + os.path.join("src", "repro") + os.sep
_HARNESS = os.path.dirname(os.path.abspath(__file__))

#: The benchmark's own pump and checks run inside the timed region; they
#: are the load generator, so they are charged to ``workload``.
HARNESS_LAYER = "workload"


def layer_of(code) -> "str | None":
    """The layer a profiled code object belongs to, or None (charge the caller)."""
    if isinstance(code, str):  # a C built-in
        return None
    filename = code.co_filename
    if filename.startswith(_HARNESS):
        return HARNESS_LAYER
    at = filename.rfind(_REPRO)
    if at < 0:
        return None
    relative = filename[at + len(_REPRO):].replace(os.sep, "/")
    for prefix in _PREFIXES:
        if relative.startswith(prefix):
            return LAYER_OF_PATH[prefix]
    return None  # repro/exceptions.py, repro/analysis/...: charge the caller


def attribute(profile: cProfile.Profile) -> tuple[dict[str, float], dict[str, int]]:
    """Split a finished profile into per-layer self seconds and call counts.

    Returns ``(self_seconds_by_layer, calls_by_qualified_name)``; the call
    counts are keyed ``"<file stem>:<qualname>"`` (e.g. ``engine:Environment.step``).
    """
    entries = profile.getstats()
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    layers = {entry.code: layer_of(entry.code) for entry in entries}
    # Inline time of each unmapped function, split by who called it.
    inbound: dict[object, dict[object, float]] = defaultdict(lambda: defaultdict(float))
    for entry in entries:
        code = entry.code
        if layers[code] is not None:
            self_s[layers[code]] += entry.inlinetime
        if not isinstance(code, str):
            stem = os.path.splitext(os.path.basename(code.co_filename))[0]
            calls[f"{stem}:{code.co_qualname}"] += entry.callcount
        for sub in entry.calls or ():
            if layers[sub.code] is None:
                inbound[sub.code][code] += sub.inlinetime

    # Resolve each unmapped function to a distribution over layers by
    # following its callers; a few relaxation rounds settle chains of
    # unmapped callers (json -> encoder -> built-in, ...).
    share: dict[object, dict[str, float]] = {}
    for _round in range(12):
        for code, callers in inbound.items():
            mix: dict[str, float] = defaultdict(float)
            for caller, seconds in callers.items():
                if layers[caller] is not None:
                    mix[layers[caller]] += seconds
                    continue
                upstream = share.get(caller)
                total = sum(upstream.values()) if upstream else 0.0
                if total > 0.0:
                    for name, weight in upstream.items():
                        mix[name] += seconds * weight / total
            share[code] = mix
    for entry in entries:
        if layers[entry.code] is not None:
            continue
        mix = share.get(entry.code)
        total = sum(mix.values()) if mix else 0.0
        if total > 0.0:
            for name, weight in mix.items():
                self_s[name] += entry.inlinetime * weight / total
        else:
            # Reached only from frames outside the profile (none expected).
            self_s[HARNESS_LAYER] += entry.inlinetime
    return dict(self_s), dict(calls)
