"""Arrival processes: *when* requests happen, on the simulation clock.

An arrival process yields a monotone non-decreasing sequence of request
times (simulated seconds).  The non-homogeneous process is built on
Lewis–Shedler thinning against an explicit rate function, so the same two
RNG streams (candidate gaps + acceptance) reproduce the same arrival
sequence bit-for-bit at a fixed seed.  Every rate, time and multiplier
must be finite: a ``nan`` rate would make thinning reject every
candidate, and an infinite one would stop the clock.

* :class:`PoissonArrivals` — homogeneous Poisson at ``rate`` req/s.
* :class:`FlashCrowdArrivals` — a base rate plus scheduled spike windows
  during which the rate is multiplied (the flash-crowd regime the
  gateway hot cache exists for).

All times are relative to the start of the workload (t=0); drivers shift
them onto the live :class:`~repro.sim.engine.Environment` clock.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

from repro.sim.rng import SeededRNG

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "FlashCrowdArrivals",
    "SpikeWindow",
]


def _check_positive(what: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{what} must be finite and > 0, got {value}")


class ArrivalProcess:
    """Base: an unbounded, reproducible sequence of arrival times.

    Subclasses either override :meth:`times` wholesale or provide
    :meth:`rate` (requests/s at time ``t``) plus :attr:`peak_rate` and
    inherit the thinning generator.
    """

    #: RNG stream for candidate inter-arrival gaps.
    stream = "arrivals"
    #: An upper bound on :meth:`rate` over all t; thinning candidates are
    #: drawn at this rate and accepted with probability rate(t)/peak.
    peak_rate = 0.0

    def rate(self, t: float) -> float:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError

    def times(self, rng: SeededRNG) -> Iterator[float]:
        """Yield arrival times from t=0 (Lewis–Shedler thinning)."""
        peak = self.peak_rate
        if peak <= 0.0:
            raise ValueError(f"peak rate must be > 0, got {peak}")
        accept_stream = f"{self.stream}:accept"
        t = 0.0
        while True:
            t += rng.exponential(1.0 / peak, stream=self.stream)
            accept = rng.uniform(0.0, 1.0, stream=accept_stream)
            if accept * peak < self.rate(t):
                yield t


class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals at ``rate_per_s``."""

    def __init__(self, rate_per_s: float, stream: str = "arrivals") -> None:
        _check_positive("rate", rate_per_s)
        self.rate_per_s = float(rate_per_s)
        self.stream = stream
        self.peak_rate = self.rate_per_s

    def rate(self, t: float) -> float:
        return self.rate_per_s

    def times(self, rng: SeededRNG) -> Iterator[float]:
        # Homogeneous case: draw gaps directly, no thinning (half the RNG
        # draws, and the inter-arrival gaps are exactly Exp(1/rate) — the
        # distribution the KS property test checks).
        mean_gap = 1.0 / self.rate_per_s
        t = 0.0
        while True:
            t += rng.exponential(mean_gap, stream=self.stream)
            yield t

    def describe(self) -> dict:
        return {"process": "poisson", "rate_per_s": self.rate_per_s}


class SpikeWindow:
    """One flash-crowd spike: ``[start_s, start_s + duration_s)`` at
    ``multiplier`` times the base rate."""

    __slots__ = ("start_s", "duration_s", "multiplier")

    def __init__(self, start_s: float, duration_s: float, multiplier: float) -> None:
        if not all(map(math.isfinite, (start_s, duration_s, multiplier))):
            raise ValueError(
                f"spike values must be finite, got {start_s}/{duration_s}/{multiplier}"
            )
        if start_s < 0.0 or duration_s <= 0.0:
            raise ValueError(
                f"need start >= 0 and duration > 0, got {start_s}/{duration_s}"
            )
        if multiplier < 1.0:
            raise ValueError(f"spike multiplier must be >= 1, got {multiplier}")
        self.start_s = float(start_s)
        self.duration_s = float(duration_s)
        self.multiplier = float(multiplier)

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def covers(self, t: float) -> bool:
        return self.start_s <= t < self.end_s

    def describe(self) -> dict:
        return {
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "multiplier": self.multiplier,
        }


class FlashCrowdArrivals(ArrivalProcess):
    """A base Poisson rate with scheduled spike windows.

    During a spike the rate is ``base * multiplier``; outside every spike
    it is ``base``.  Overlapping spikes take the max multiplier (they do
    not compound).
    """

    def __init__(
        self,
        base_rate_per_s: float,
        spikes: Sequence[SpikeWindow],
        stream: str = "arrivals",
    ) -> None:
        _check_positive("base rate", base_rate_per_s)
        if not spikes:
            raise ValueError("a flash-crowd process needs at least one spike")
        self.base_rate_per_s = float(base_rate_per_s)
        self.spikes = list(spikes)
        self.stream = stream
        self.peak_rate = self.base_rate_per_s * max(
            spike.multiplier for spike in self.spikes
        )

    def rate(self, t: float) -> float:
        multiplier = 1.0
        for spike in self.spikes:
            if spike.covers(t):
                multiplier = max(multiplier, spike.multiplier)
        return self.base_rate_per_s * multiplier

    def describe(self) -> dict:
        return {
            "process": "flash-crowd",
            "base_rate_per_s": self.base_rate_per_s,
            "spikes": [spike.describe() for spike in self.spikes],
        }
