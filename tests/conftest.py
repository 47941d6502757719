"""Shared fixtures for the test suite."""

from __future__ import annotations

import cProfile
import gc
from typing import Callable

import pytest

from repro.core.framework import CLIENT_EDGE, LIDCTestbed, TestbedConfig
from repro.ndn.packet import Data
from repro.ndn.segmentation import parse_segment, segment_data
from repro.sim.engine import Environment
from repro.sim.rng import SeededRNG


@pytest.fixture
def env() -> Environment:
    """A fresh simulation environment."""
    return Environment()


@pytest.fixture
def rng() -> SeededRNG:
    """A deterministic RNG shared by stochastic tests."""
    return SeededRNG(1234)


@pytest.fixture
def star_testbed() -> Callable[..., LIDCTestbed]:
    """Build a testbed whose clusters hang off the client edge at given latencies.

    ``star_testbed([0.01, 0.03], seed=2, node_count=1)`` adds cluster-a 10 ms
    and cluster-b 30 ms from the client edge; keyword arguments other than
    ``seed`` go to :class:`TestbedConfig`.
    """

    def build(latencies_s, seed: int = 0, **config) -> LIDCTestbed:
        testbed = LIDCTestbed(TestbedConfig(seed=seed, **config))
        for latency in latencies_s:
            testbed.add_cluster(latency_s=latency)
        return testbed

    return build


@pytest.fixture
def chain_testbed() -> Callable[..., LIDCTestbed]:
    """Build a testbed whose clusters form a line from the client edge.

    ``chain_testbed(3, latencies_s=[0.01])`` links cluster-a to the edge at
    10 ms, cluster-b to cluster-a and cluster-c to cluster-b at the
    testbed's WAN latency (a cluster past the end of ``latencies_s`` gets
    ``add_cluster``'s default).
    """

    def build(count: int, seed: int = 0, latencies_s=()) -> LIDCTestbed:
        testbed = LIDCTestbed(TestbedConfig(seed=seed))
        previous = CLIENT_EDGE
        for index in range(count):
            latency = latencies_s[index] if index < len(latencies_s) else None
            previous = testbed.add_cluster(connect_to=previous, latency_s=latency).name
        return testbed

    return build


@pytest.fixture
def call_count() -> Callable[[Callable[[], object]], int]:
    """Count the Python and builtin calls one thunk makes (cProfile ncalls).

    A cost stated as a call count is the same on every run of one CPython
    version, unlike a wall-clock time.  Compare counts between two runs
    of one test rather than pinning absolute numbers: those move with the
    interpreter version.  The cyclic garbage collector is paused while the
    thunk runs, so finalizers of unrelated garbage never land in the count.
    """

    def count(thunk: Callable[[], object]) -> int:
        profiler = cProfile.Profile()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            profiler.runcall(thunk)
        finally:
            if was_enabled:
                gc.enable()
        return sum(entry.callcount for entry in profiler.getstats())

    return count


@pytest.fixture
def segment_all() -> Callable[..., list[Data]]:
    """Every segment ``segment_data`` makes of one object, in order."""

    def segment_all(base_name, content: bytes, segment_size: int,
                    freshness_period: float = 0.0) -> list[Data]:
        first = segment_data(base_name, content, 0, segment_size, freshness_period)
        last = parse_segment(first.final_block_id.to_str())
        return [first] + [
            segment_data(base_name, content, index, segment_size, freshness_period)
            for index in range(1, last + 1)
        ]

    return segment_all
