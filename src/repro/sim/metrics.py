"""Lightweight metrics: counters, gauges, histograms, and timers.

The registry is used across all substrates to record simulation measurements
(latencies, hit rates, queue lengths) that the benchmarks later report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["Counter", "Gauge", "Histogram", "Timer", "MetricsRegistry"]


@dataclass
class Counter:
    """A monotonically increasing counter."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a Gauge for decrements")
        self.value += amount


@dataclass
class Gauge:
    """A value that can move up and down, remembering its extremes."""

    name: str
    value: float = 0.0
    min_seen: float = math.inf
    max_seen: float = -math.inf

    def set(self, value: float) -> None:
        self.value = value
        self.min_seen = min(self.min_seen, value)
        self.max_seen = max(self.max_seen, value)

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self.value - amount)


@dataclass
class Histogram:
    """An exact-sample histogram with percentile queries.

    Samples are kept in full (simulations here are small enough); percentile
    queries use numpy.
    """

    name: str
    samples: list[float] = field(default_factory=list)

    def observe(self, value: float) -> None:
        self.samples.append(float(value))

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return float(sum(self.samples))

    @property
    def mean(self) -> float:
        return self.total / self.count if self.samples else 0.0

    @property
    def minimum(self) -> float:
        return min(self.samples) if self.samples else 0.0

    @property
    def maximum(self) -> float:
        return max(self.samples) if self.samples else 0.0

    def percentile(self, q: float) -> float:
        """Return the ``q``-th percentile (0–100) of the samples."""
        if not self.samples:
            return 0.0
        return float(np.percentile(np.asarray(self.samples), q))

    @property
    def stddev(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        return float(np.std(np.asarray(self.samples), ddof=1))

    def summary(self) -> dict[str, float]:
        """Dict summary used by the analysis layer."""
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.minimum,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "max": self.maximum,
            "stddev": self.stddev,
        }


class Timer:
    """Context manager recording a simulated-time duration into a histogram."""

    def __init__(self, histogram: Histogram, clock) -> None:
        self._histogram = histogram
        self._clock = clock
        self._start: Optional[float] = None

    def __enter__(self) -> "Timer":
        self._start = self._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._start is not None and exc_type is None:
            self._histogram.observe(self._clock() - self._start)


class MetricsRegistry:
    """A named collection of counters, gauges and histograms."""

    def __init__(self, clock=None) -> None:
        self._clock = clock or (lambda: 0.0)
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        return self._counters.setdefault(name, Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._gauges.setdefault(name, Gauge(name))

    def histogram(self, name: str) -> Histogram:
        return self._histograms.setdefault(name, Histogram(name))

    def timer(self, name: str) -> Timer:
        return Timer(self.histogram(name), self._clock)

    def names(self) -> list[str]:
        """All metric names currently registered."""
        return sorted(
            set(self._counters) | set(self._gauges) | set(self._histograms)
        )

    def snapshot(self) -> dict[str, object]:
        """A plain-dict snapshot of every metric (for reports and tests)."""
        out: dict[str, object] = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, gauge in self._gauges.items():
            out[name] = gauge.value
        for name, hist in self._histograms.items():
            out[name] = hist.summary()
        return out

    def merge(self, other: "MetricsRegistry", prefix: str = "") -> None:
        """Fold another registry's metrics into this one (used by reports)."""
        for name, counter in other._counters.items():
            self.counter(prefix + name).inc(counter.value)
        for name, gauge in other._gauges.items():
            self.gauge(prefix + name).set(gauge.value)
        for name, hist in other._histograms.items():
            mine = self.histogram(prefix + name)
            mine.samples.extend(hist.samples)
