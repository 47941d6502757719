"""Shared fixtures for the test suite."""

from __future__ import annotations

import cProfile
from typing import Callable

import pytest

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
def call_count() -> Callable[[Callable[[], object]], int]:
    """Count the Python and builtin calls one thunk makes (cProfile ncalls).

    A cost stated as a call count is the same on every run of one CPython
    version, unlike a wall-clock time.  Compare counts between two runs
    of one test rather than pinning absolute numbers: those move with the
    interpreter version.
    """

    def count(thunk: Callable[[], object]) -> int:
        profiler = cProfile.Profile()
        profiler.runcall(thunk)
        return sum(entry.callcount for entry in profiler.getstats())

    return count
