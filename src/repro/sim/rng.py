"""Deterministic random-number streams.

Every stochastic component in the reproduction draws from a named stream of a
single :class:`SeededRNG`, so experiments are reproducible from a single seed
while distinct subsystems stay statistically independent.

The draws are the ones product code makes: ``uniform`` (retry jitter, fault
times and outage lengths, thinning of arrivals), ``exponential`` (arrival
gaps), ``normal`` (BLAST runtime noise), ``integer`` and ``choice`` (fault
targets), ``zipf`` (catalog popularity), plus ``stream`` for the raw
generator behind synthetic genomes and reads and ``spawn`` for a derived
family.
"""

from __future__ import annotations

import hashlib
from typing import Sequence, TypeVar

import numpy as np

__all__ = ["SeededRNG"]

T = TypeVar("T")


def _stream_seed(seed: int, stream: str) -> int:
    """Derive a 64-bit sub-seed for ``stream`` from the master ``seed``."""
    digest = hashlib.sha256(f"{seed}:{stream}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class SeededRNG:
    """A family of named, independent, deterministic random streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}
        #: Normalised cumulative distributions memoised per (n, alpha) — a
        #: Zipf draw is then one uniform plus one binary search instead of
        #: an O(n) weight computation per sample.
        self._zipf_cdfs: dict[tuple[int, float], np.ndarray] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating if necessary) the generator for ``name``."""
        if name not in self._streams:
            self._streams[name] = np.random.default_rng(_stream_seed(self.seed, name))
        return self._streams[name]

    # Convenience wrappers -----------------------------------------------------

    def uniform(self, low: float, high: float, stream: str = "default") -> float:
        """Uniform float in ``[low, high)``."""
        return float(self.stream(stream).uniform(low, high))

    def exponential(self, mean: float, stream: str = "default") -> float:
        """Exponentially distributed float with the given mean."""
        return float(self.stream(stream).exponential(mean))

    def normal(self, mean: float, std: float, stream: str = "default") -> float:
        """Normally distributed float."""
        return float(self.stream(stream).normal(mean, std))

    def integer(self, low: int, high: int, stream: str = "default") -> int:
        """Uniform integer in ``[low, high]`` inclusive."""
        return int(self.stream(stream).integers(low, high + 1))

    def choice(self, options: Sequence[T], stream: str = "default") -> T:
        """Uniform choice from a non-empty sequence."""
        if not options:
            raise ValueError("cannot choose from an empty sequence")
        idx = int(self.stream(stream).integers(0, len(options)))
        return options[idx]

    def zipf(self, n: int, alpha: float, stream: str = "default") -> int:
        """A 0-based rank drawn from a truncated Zipf(``alpha``) over ``n`` items.

        Rank ``k`` (0-based) is drawn with probability proportional to
        ``(k + 1) ** -alpha``; ``alpha = 0`` degenerates to uniform.  The
        normalised CDF is memoised per ``(n, alpha)`` so repeated draws —
        the workload-generator hot path — cost one uniform variate and one
        binary search each.
        """
        if n < 1:
            raise ValueError(f"zipf needs a catalog of >= 1 items, got n={n}")
        if not alpha >= 0.0:
            raise ValueError(f"zipf exponent must be >= 0, got {alpha}")
        key = (int(n), float(alpha))
        cdf = self._zipf_cdfs.get(key)
        if cdf is None:
            weights = np.arange(1, n + 1, dtype=np.float64) ** -float(alpha)
            cdf = np.cumsum(weights)
            cdf /= cdf[-1]
            self._zipf_cdfs[key] = cdf
        u = self.stream(stream).random()
        return int(np.searchsorted(cdf, u, side="right"))

    def spawn(self, name: str) -> "SeededRNG":
        """Derive a child RNG whose streams are independent of the parent's."""
        return SeededRNG(_stream_seed(self.seed, f"spawn:{name}"))
