#!/usr/bin/env python3
"""Drive the sharded data plane with seeded, realistic traffic models.

The workload library (:mod:`repro.workload`) separates *what* is popular
(``ZipfPopularity``, ``ScanPopularity``, ``MixedPopularity``) from *when*
requests arrive (``PoissonArrivals``, ``OnOffArrivals``,
``DiurnalArrivals``, ``FlashCrowdArrivals``) and from *where* they are
sent (``WorkloadDriver`` for the NDN data plane, ``LIDCWorkloadDriver``
for compute submissions).  Everything draws from named ``SeededRNG``
streams, so a workload is a value: same seed, byte-identical trace —
the hash printed below never changes between runs.

This example builds three contrasting workloads, drives each through a
fresh 2-shard forwarder, and shows how the dispatcher hot cache responds:
a skewed crowd is absorbed, a flash crowd even more so, and a
cache-hostile scan passes straight through.

Run with::

    python examples/workload_models.py
"""

import _path_setup  # noqa: F401

from repro.ndn.packet import Data
from repro.ndn.shard import ShardedForwarder
from repro.sim.engine import Environment
from repro.sim.rng import SeededRNG
from repro.workload import (
    FlashCrowdArrivals,
    PoissonArrivals,
    ScanPopularity,
    SpikeWindow,
    WorkloadDriver,
    WorkloadSpec,
    ZipfPopularity,
    make_catalog,
)

SEED = 7
CATALOG = make_catalog(128)  # /w000..w015 tenants, 128 objects
TENANTS = sorted({f"/{name.split('/')[1]}" for name in CATALOG})


def fresh_node(env: Environment) -> ShardedForwarder:
    node = ShardedForwarder(env, name="edge", shards=2, cs_capacity=1024,
                            hot_cache=128)
    for tenant in TENANTS:
        def handler(interest, _tenant=tenant):
            return Data(name=interest.name, content=b"obj:" + _tenant.encode(),
                        freshness_period=3600.0)
        node.attach_producer(tenant, handler)
    return node


def specs() -> list[WorkloadSpec]:
    return [
        # A steady, skewed crowd: most requests go to a few hot names.
        WorkloadSpec(
            label="zipf",
            popularity=ZipfPopularity(alpha=1.2, catalog=CATALOG),
            arrivals=PoissonArrivals(400.0),
            requests=1200,
        ),
        # The same skew, but the rate spikes 10x for two seconds.
        WorkloadSpec(
            label="flash",
            popularity=ZipfPopularity(alpha=1.4, catalog=CATALOG),
            arrivals=FlashCrowdArrivals(
                100.0, [SpikeWindow(start_s=1.0, duration_s=2.0, multiplier=10.0)]
            ),
            requests=1200,
        ),
        # Adversarial: every name unique, nothing is ever re-requested.
        WorkloadSpec(
            label="scan",
            popularity=ScanPopularity(tenants=TENANTS),
            arrivals=PoissonArrivals(400.0),
            requests=1200,
        ),
    ]


def main() -> None:
    print(f"{'workload':>8}  {'satisfied':>9}  {'hot hits':>8}  "
          f"{'shard CS hits':>13}  trace hash")
    for spec in specs():
        env = Environment()
        node = fresh_node(env)
        report = WorkloadDriver(env, node, spec, rng=SeededRNG(SEED)).run()
        hot = node.hot_cache.hits
        shard_cs = sum(shard.cs.hits for shard in node.shards)
        print(f"{spec.label:>8}  {report.satisfied:>9}  {hot:>8}  "
              f"{shard_cs:>13}  {report.trace_hash[:16]}")
    print("\nRe-run this script: the trace hashes are identical every time.")


if __name__ == "__main__":
    main()
