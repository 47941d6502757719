"""Named counters: the one metrics registry.

A :class:`MetricsRegistry` holds monotonically increasing
:class:`Counter` objects by name.  Components keep their counters where
they count (a forwarder's ``metrics.counter("interests_received")``, a
gateway's ``metrics.counter("jobs_admitted")``), and tests and the
benchmark read them there; :meth:`MetricsRegistry.snapshot` is the one
read-all view.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Counter", "MetricsRegistry"]


@dataclass
class Counter:
    """A monotonically increasing counter."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount


class MetricsRegistry:
    """A named collection of counters."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created at zero on first use."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def snapshot(self) -> dict[str, float]:
        """Every counter's current value, by name."""
        return {name: counter.value for name, counter in self._counters.items()}
