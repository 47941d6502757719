"""Discrete-event simulation kernel.

The kernel follows the classic process-interaction style (generators that
``yield`` events), similar in spirit to SimPy but implemented from scratch so
the reproduction has no external runtime dependencies.

Public API
----------

* :class:`~repro.sim.engine.Environment` — the event loop and simulated clock.
* :class:`~repro.sim.engine.Event`, :class:`~repro.sim.engine.Timeout`,
  :class:`~repro.sim.engine.Process`, :class:`~repro.sim.engine.AllOf`,
  :class:`~repro.sim.engine.AnyOf` — the yieldable primitives.
* :class:`~repro.sim.topology.Topology` — latency/bandwidth network topology.
* :class:`~repro.sim.metrics.MetricsRegistry` — named counters.
* :class:`~repro.sim.trace.Tracer` — structured event tracing.
* :class:`~repro.sim.rng.SeededRNG` — deterministic random streams.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Process,
    Timeout,
)
from repro.sim.topology import Link, Topology, TopologyNode
from repro.sim.metrics import Counter, MetricsRegistry
from repro.sim.trace import TraceEvent, Tracer
from repro.sim.rng import SeededRNG

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "Topology",
    "TopologyNode",
    "Link",
    "MetricsRegistry",
    "Counter",
    "Tracer",
    "TraceEvent",
    "SeededRNG",
]
