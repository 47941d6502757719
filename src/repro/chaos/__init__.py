"""Deterministic chaos layer: seeded fault schedules injected into the overlay.

``spec`` builds replayable fault schedules from named ``SeededRNG``
streams (the chaos mirror of :mod:`repro.workload`); ``driver`` injects
them into a :class:`~repro.core.overlay.ComputeOverlay` through its public
control surface.  See ``README.md`` in this package for the recipe.
"""

from repro.chaos.driver import ChaosDriver
from repro.chaos.spec import (
    ChaosSpec,
    FaultEvent,
    FaultKind,
    build_schedule,
    schedule_hash,
)

__all__ = [
    "ChaosSpec",
    "FaultEvent",
    "FaultKind",
    "build_schedule",
    "schedule_hash",
    "ChaosDriver",
]
