"""Structured event tracing.

A :class:`Tracer` records ``(time, category, event, attributes)`` tuples.
The benchmarks use traces to decompose end-to-end latencies into per-step
contributions (e.g. the five protocol steps of the paper's Figure 5).

Formatting contract: :meth:`Tracer.record` formats *eagerly* — every
attribute value that is not already a primitive (``str``/``int``/``float``/
``bool``/``None``) is replaced by its ``str()`` when the record is made, so
a stored record holds primitives only, never a live object of the run (and
an attribute dict of primitives is one the cycle collector never has to
visit).  Eager is affordable because the one rich type the forwarding plane
passes, :class:`~repro.ndn.name.Name`, memoises its URI, and a consumer's
repeated request names are one ``Name`` each (``repro.ndn.name.parse_name``):
the URI is formatted once per distinct name, not once per request, and
every record of a name shares that one string.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, NamedTuple, Optional

__all__ = ["TraceEvent", "Tracer"]

_PRIMITIVES = (str, int, float, bool, type(None))


class TraceEvent(NamedTuple):
    """A single trace record."""

    time: float
    category: str
    event: str
    attrs: dict[str, Any]

    def matches(self, category: Optional[str] = None, event: Optional[str] = None) -> bool:
        """True when the record matches the given category/event filters."""
        if category is not None and self.category != category:
            return False
        if event is not None and self.event != event:
            return False
        return True


class Tracer:
    """Collects :class:`TraceEvent` records in arrival order."""

    def __init__(self, clock: Optional[Callable[[], float]] = None, enabled: bool = True) -> None:
        self._clock = clock or (lambda: 0.0)
        self.enabled = enabled
        self.events: list[TraceEvent] = []

    def record(self, category: str, event: str, **attrs: Any) -> Optional[TraceEvent]:
        """Append a trace record stamped with the current simulated time.

        Attribute values that are not primitives are stringified here — so
        hot paths can pass rich objects (e.g. NDN names) and only pay the
        formatting cost when tracing is actually enabled.
        """
        if not self.enabled:
            return None
        # A fresh dict, not ``attrs`` patched in place: a dict that ever held
        # a collectable value stays GC-tracked until the next full collection.
        attrs = {
            key: value if isinstance(value, _PRIMITIVES) else str(value)
            for key, value in attrs.items()
        }
        record = TraceEvent(self._clock(), category, event, attrs)
        self.events.append(record)
        return record

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        # Without this, an *empty* tracer is falsy (via ``__len__``) and
        # every ``tracer or Tracer(...)`` default silently replaces a
        # caller-supplied tracer that simply has no events yet.
        return True

    def filter(self, category: Optional[str] = None, event: Optional[str] = None) -> list[TraceEvent]:
        """All records matching the filters, in order."""
        return [ev for ev in self.events if ev.matches(category, event)]

    def spans(self, start_event: str, end_event: str, key: str) -> list[tuple[Any, float]]:
        """Pair up start/end records sharing ``attrs[key]`` and return durations.

        Useful for latency decomposition: ``spans("gateway", "job-done", "job_id")``.
        """
        starts: dict[Any, float] = {}
        durations: list[tuple[Any, float]] = []
        for record in self.events:
            ident = record.attrs.get(key)
            if ident is None:
                continue
            if record.event == start_event and ident not in starts:
                starts[ident] = record.time
            elif record.event == end_event and ident in starts:
                durations.append((ident, record.time - starts.pop(ident)))
        return durations

    def clear(self) -> None:
        self.events.clear()

    def categories(self) -> set[str]:
        return {ev.category for ev in self.events}

    def to_dicts(self) -> list[dict[str, Any]]:
        """Serialize the trace as a list of plain dicts."""
        return [
            {"time": ev.time, "category": ev.category, "event": ev.event, **ev.attrs}
            for ev in self.events
        ]

    @staticmethod
    def merge(tracers: Iterable["Tracer"]) -> list[TraceEvent]:
        """Merge several tracers' records into a single time-ordered list."""
        merged: list[TraceEvent] = []
        for tracer in tracers:
            merged.extend(tracer.events)
        merged.sort(key=lambda ev: ev.time)
        return merged
