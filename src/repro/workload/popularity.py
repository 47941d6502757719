"""Content-popularity models: who asks for *what*.

A popularity model maps a stream of draws from a :class:`~repro.sim.rng.
SeededRNG` onto request names.  The models here cover the regimes the
bench trajectory needs (ROADMAP open item 3):

* :class:`ZipfPopularity` — skewed power-law popularity over a fixed name
  catalog, the empirical shape of content-distribution traffic.  ``alpha``
  controls the skew: 0 is uniform, 0.8 is web-like, 1.2+ is flash-video-like.
* :class:`ScanPopularity` — cache-hostile: every request names a brand-new
  object, so any cache sees a 0% hit rate by construction.  This is the
  adversarial floor a caching tier must not regress below parity on.

All entropy flows through named ``SeededRNG`` streams, so a model is
deterministic per (seed, stream) and two models on distinct streams are
statistically independent (reprolint RL010 applies to this package).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.sim.rng import SeededRNG

__all__ = [
    "PopularityModel",
    "ZipfPopularity",
    "ScanPopularity",
    "make_catalog",
]


def make_catalog(
    size: int, tenants: Optional[Sequence[str]] = None, label: str = "obj"
) -> list[str]:
    """A catalog of ``size`` names spread round-robin across tenant prefixes.

    Tenant prefixes are the shard-partitioning key (first name component),
    so a catalog built this way exercises every shard of a
    :class:`~repro.ndn.shard.ShardedForwarder` rather than pinning the
    whole workload onto one.
    """
    if size < 1:
        raise ValueError(f"catalog size must be >= 1, got {size}")
    if tenants is None:
        tenants = [f"/w{i:03d}" for i in range(min(size, 16))]
    return [
        f"{tenants[k % len(tenants)]}/{label}{k:05d}" for k in range(size)
    ]


class PopularityModel:
    """Base: maps RNG draws to request names.

    Subclasses implement :meth:`next_name`; :meth:`describe` feeds the
    benchmark JSON so every artefact records exactly which model (and
    parameters) produced its numbers.
    """

    #: RNG stream drawn from; models sharing an RNG but using distinct
    #: streams stay decorrelated.
    stream = "popularity"

    def next_name(self, rng: SeededRNG) -> str:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


class ZipfPopularity(PopularityModel):
    """Zipf(``alpha``) popularity over a fixed catalog.

    Rank 0 (the hottest name) is requested with probability proportional
    to ``1``, rank k to ``(k + 1) ** -alpha``.  The catalog order *is* the
    popularity order, so tests can check empirical frequencies against the
    analytic distribution directly.
    """

    def __init__(
        self,
        alpha: float,
        catalog: Optional[Sequence[str]] = None,
        size: int = 1024,
        stream: str = "popularity",
    ) -> None:
        if not (math.isfinite(alpha) and alpha >= 0.0):
            raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
        self.alpha = float(alpha)
        self.catalog = list(catalog) if catalog is not None else make_catalog(size)
        if not self.catalog:
            raise ValueError("catalog must be non-empty")
        self.stream = stream

    def next_name(self, rng: SeededRNG) -> str:
        rank = rng.zipf(len(self.catalog), self.alpha, stream=self.stream)
        return self.catalog[rank]

    def describe(self) -> dict:
        return {
            "model": "zipf",
            "alpha": self.alpha,
            "catalog_size": len(self.catalog),
        }


class ScanPopularity(PopularityModel):
    """Cache-hostile unique-name scan: every request is a fresh object.

    Deterministic without any RNG draw — a monotone counter under rotating
    tenant prefixes — so a scan consumes no entropy and cannot shift the
    draws of any other model sharing the RNG.
    """

    def __init__(
        self, tenants: Optional[Sequence[str]] = None, label: str = "scan"
    ) -> None:
        self.tenants = (
            list(tenants) if tenants is not None else [f"/w{i:03d}" for i in range(16)]
        )
        if not self.tenants:
            raise ValueError("tenants must be non-empty")
        self.label = label
        self._counter = 0

    def next_name(self, rng: SeededRNG) -> str:
        k = self._counter
        self._counter += 1
        return f"{self.tenants[k % len(self.tenants)]}/{self.label}{k:08d}"

    def describe(self) -> dict:
        return {"model": "scan", "tenants": len(self.tenants)}
