"""Structured event tracing.

A :class:`Tracer` records ``(time, category, event, attributes)`` tuples
in arrival order; :meth:`Tracer.filter` is the one query over them.
(Figure 5's per-step latencies do not come from here: they are read off
each job's ``JobOutcome.timeline``, see :mod:`repro.core.workflow`.)

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

from typing import Any, Callable, NamedTuple, Optional

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
