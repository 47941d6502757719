"""Seeded workload models: realistic traffic for benchmarks and soaks.

See ``README.md`` in this directory for the "choosing a workload model"
recipe; the short form:

* pick *what* gets requested from :mod:`repro.workload.popularity`
  (Zipf skew or a cache-hostile scan),
* pick *when* from :mod:`repro.workload.arrivals` (Poisson or flash-crowd
  spikes),
* bind them in a :class:`~repro.workload.driver.WorkloadSpec` and drive a
  node with :class:`~repro.workload.driver.WorkloadDriver`.

Every draw flows through :class:`repro.sim.rng.SeededRNG` streams and the
generated trace is pinned by :func:`~repro.workload.driver.trace_hash`,
so any run is reproducible from (seed, spec) alone.
"""

from repro.workload.arrivals import (
    ArrivalProcess,
    FlashCrowdArrivals,
    PoissonArrivals,
    SpikeWindow,
)
from repro.workload.driver import (
    TraceRecord,
    WorkloadDriver,
    WorkloadReport,
    WorkloadSpec,
    build_trace,
    trace_hash,
)
from repro.workload.popularity import (
    PopularityModel,
    ScanPopularity,
    ZipfPopularity,
    make_catalog,
)

__all__ = [
    "ArrivalProcess",
    "FlashCrowdArrivals",
    "PoissonArrivals",
    "SpikeWindow",
    "TraceRecord",
    "WorkloadDriver",
    "WorkloadReport",
    "WorkloadSpec",
    "build_trace",
    "trace_hash",
    "PopularityModel",
    "ScanPopularity",
    "ZipfPopularity",
    "make_catalog",
]
