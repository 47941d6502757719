"""Structured event tracing.

A :class:`Tracer` records ``(time, category, event, attributes)`` tuples
in arrival order; :attr:`Tracer.events` reads them back and
:meth:`Tracer.filter` is the one query over them.  (Figure 5's per-step
latencies do not come from here: they are read off each job's
``JobOutcome.timeline``, see :mod:`repro.core.workflow`.)

Storage: records are kept as columns, not as objects.  A record is one
entry in each of three typed arrays — its time (``array('d')``), its
*kind* (``array('I')``, an index into a small schema table of
``(category, event, attribute keys)``) and the offset of its first value
(``array('I')``) — plus its attribute values, appended to one flat list.
A packet record (``name=``, ``face=``) thus retains about 34 bytes, where
a tuple, a float and a dict of its own took about 300.
:attr:`Tracer.events` is a read-only sequence over the columns: ``len`` is
O(1), and indexing, slicing and iteration build each :class:`TraceEvent`
on demand.

Formatting contract: :meth:`Tracer.record` formats *eagerly* — every
attribute value that is not already a primitive (``str``/``int``/``float``/
``bool``/``None``) is replaced by its ``str()`` when the record is made, so
the store holds primitives only, never a live object of the run, and the
cycle collector sees one list instead of an object per record (arrays are
not GC-tracked, nor is an attribute dict of primitives built on read).
Eager is affordable because the one rich type the forwarding plane passes,
:class:`~repro.ndn.name.Name`, memoises its URI, and a consumer's repeated
request names are one ``Name`` each (``repro.ndn.name.parse_name``): the
URI is formatted once per distinct name, not once per request, and every
record of a name shares that one string.  A name formats straight from its
wire bytes and keeps only the string, so the memo builds no component
objects and costs one ``str`` per name.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from typing import Any, Callable, Iterator, NamedTuple, Optional

__all__ = ["TraceEvent", "Tracer"]

_PRIMITIVES = (str, int, float, bool, type(None))
#: Tested first: a set lookup on ``type(value)`` is no call, where
#: ``isinstance`` is one, so the common exact primitive costs no call.
_EXACT_PRIMITIVES = frozenset(_PRIMITIVES)


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


class _Records(Sequence):
    """Read-only view of a tracer's records, built on demand."""

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer

    def __len__(self) -> int:
        return len(self._tracer._times)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._tracer._record(i) for i in range(*index.indices(len(self)))]
        return self._tracer._record(index)

    def __iter__(self) -> Iterator[TraceEvent]:
        for i in range(len(self)):
            yield self._tracer._record(i)


class Tracer:
    """Collects trace records in arrival order, as columns."""

    def __init__(self, clock: Optional[Callable[[], float]] = None, enabled: bool = True) -> None:
        self._clock = clock or (lambda: 0.0)
        self.enabled = enabled
        self._times = array("d")
        self._kinds = array("I")
        self._starts = array("I")
        self._values: list[Any] = []
        #: kind -> ``(category, event, attribute keys)``, and its inverse:
        #: ``(category, event, *keys)`` -> ``(kind, number of keys)``.
        self._schema: list[tuple[str, str, tuple[str, ...]]] = []
        self._kind_of: dict[tuple[str, ...], tuple[int, int]] = {}
        self._count = 0  # len(self._values), kept without a call

    @property
    def events(self) -> Sequence[TraceEvent]:
        """Every record in arrival order (a read-only sequence)."""
        return _Records(self)

    def record(self, category: str, event: str, **attrs: Any) -> None:
        """Append a trace record stamped with the current simulated time.

        Attribute values that are not primitives are stringified here — so
        hot paths can pass rich objects (e.g. NDN names) and only pay the
        formatting cost when tracing is actually enabled.
        """
        if not self.enabled:
            return
        # Everything that can raise (formatting, the clock) runs before the
        # first append, so a failed record leaves the columns aligned.
        values = [
            value if type(value) in _EXACT_PRIMITIVES or isinstance(value, _PRIMITIVES)
            else str(value)
            for value in attrs.values()
        ]
        now = self._clock()
        key = (category, event, *attrs)
        try:
            kind, arity = self._kind_of[key]
        except KeyError:
            kind, arity = self._kind_of[key] = (len(self._schema), len(attrs))
            self._schema.append((category, event, key[2:]))
        self._times.append(now)
        self._kinds.append(kind)
        start = self._count
        self._starts.append(start)
        self._count = start + arity
        self._values += values

    def __len__(self) -> int:
        return len(self._times)

    def __bool__(self) -> bool:
        # Without this, an *empty* tracer is falsy (via ``__len__``) and
        # every ``tracer or Tracer(...)`` default silently replaces a
        # caller-supplied tracer that simply has no events yet.
        return True

    def filter(self, category: Optional[str] = None, event: Optional[str] = None) -> list[TraceEvent]:
        """All records matching the filters, in order."""
        wanted = {
            kind for kind, (cat, ev, _keys) in enumerate(self._schema)
            if (category is None or cat == category) and (event is None or ev == event)
        }
        return [self._record(i) for i, kind in enumerate(self._kinds) if kind in wanted]

    def _record(self, i: int) -> TraceEvent:
        category, event, keys = self._schema[self._kinds[i]]
        start = self._starts[i]
        attrs = dict(zip(keys, self._values[start:start + len(keys)]))
        return TraceEvent(self._times[i], category, event, attrs)
