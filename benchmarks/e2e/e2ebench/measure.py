"""One measured pass of one workload, in this process.

A pass sets the scenario up (``SETUP_REPEATS`` times, ``setup_s`` is the
median; once when profiling, whose ``setup_s`` nobody reads), runs the
warm-up slice, then times the rest of the trace with ``perf_counter`` and
``process_time``.  All counters are deltas over the
timed region.  With ``profile=True`` the timed region additionally runs
under ``cProfile`` and the per-layer table is filled in; end-to-end metrics
are only ever reported from an unprofiled pass.
"""

from __future__ import annotations

import bisect
import cProfile
import gc
import hashlib
import json
import math
import resource
import statistics
import time
from functools import partial

from e2ebench import config, layers
from e2ebench.workloads import DISRUPTIVE, SCENARIOS, Scenario

#: A served fetch slower than this crossed a WAN link (edge hits are ~0 s).
WAN_LATENCY_S = 0.005


def requests_for(workload: str, seconds: float) -> int:
    """Timed-region request count: fixed by ``--seconds``, never by a clock."""
    return max(8, round(config.ALL_WORKLOADS[workload][1] * seconds))


class _Pump:
    """Open-loop load on the simulated clock, split round-robin over the edges."""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.env = scenario.stack.env
        self.warmup = scenario.warmup
        #: Warm-up requests count too: the region ends when nothing is in flight.
        self.remaining = scenario.warmup + scenario.requests
        self.done = self.env.event(name="bench-done")
        stride = scenario.requests / config.SLICES
        self.marks_at = {self.warmup + math.floor(j * stride) for j in range(config.SLICES)}
        self.marks: list[float] = []
        #: Full (generation-2) collections seen so far, sampled with each mark.
        self.full_gcs: list[int] = []
        self.peak_queue = 0
        self.utilisation: list[float] = []
        self.latencies: list[float] = []
        self.wan_served_at: list[float] = []
        self.failures: dict[str, int] = {}
        self.wrong: list[str] = []
        #: Exchanges the clients started, warm-up included (the consumers'
        #: ``interests_sent`` cannot be split at the boundary: a warm-up
        #: job keeps polling inside the timed region).
        self.exchanges = 0
        self.polls = 0
        self.placed: dict[str, int] = {}
        self.outcomes = hashlib.sha256()

    def run(self):
        scenario, env = self.scenario, self.env
        for index, record in enumerate(scenario.trace):
            delay = record.t - env.now
            if delay > 0.0:
                yield env.timeout(delay)
            if index in self.marks_at:
                self._mark()
            event = scenario.issue(index, record)
            event.callbacks.append(partial(self._finish, index, record, env.now))

    def _mark(self) -> None:
        self.marks.append(time.perf_counter())
        self.full_gcs.append(gc.get_stats()[2]["collections"])
        self.peak_queue = max(self.peak_queue, self.env.queue_size)
        if self.scenario.stack.clients:
            self.utilisation.append(self.scenario.stack.utilisation())

    def _finish(self, index, record, sent_at, event) -> None:
        outcome = self.scenario.settle(record, event, sent_at)
        if outcome.wrong_output:
            self.wrong.append(outcome.error)
        self.exchanges += outcome.expressed
        if index >= self.warmup:
            self._account(index, outcome)
        self.remaining -= 1
        if self.remaining == 0:
            self.marks.append(time.perf_counter())
            self.full_gcs.append(gc.get_stats()[2]["collections"])
            self.done.succeed()

    def _account(self, index, outcome) -> None:
        """Book one request of the timed region."""
        self.polls += outcome.polls
        if outcome.served:
            self.latencies.append(outcome.latency_s)
            if outcome.latency_s >= WAN_LATENCY_S:
                self.wan_served_at.append(self.env.now)
            if outcome.cluster:
                self.placed[outcome.cluster] = self.placed.get(outcome.cluster, 0) + 1
        else:
            kind = outcome.error.split(":", 1)[0]
            self.failures[kind] = self.failures.get(kind, 0) + 1
        self.outcomes.update(
            f"{index} {outcome.served} {outcome.latency_s!r} {outcome.expressed}\n".encode()
        )


def _set_up(workload: str, seed: int, seconds: float) -> tuple[Scenario, _Pump]:
    """Inputs, stack, datasets and the warm-up slice; the timer starts after."""
    scenario = SCENARIOS[workload](seed, requests_for(workload, seconds), scale=seconds)
    scenario.start()
    pump = _Pump(scenario)
    scenario.stack.env.process(pump.run(), name="bench-pump")
    trace = scenario.trace
    boundary = (trace[scenario.warmup - 1].t + trace[scenario.warmup].t) / 2.0
    scenario.stack.env.run(until=boundary)
    return scenario, pump


def _timed(env, done) -> None:
    """The timed region (its own frame, so a profile covers all of it)."""
    env.run(until=done)


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _spread(values: list[float]) -> float:
    """Interquartile range over median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_pass(workload: str, seed: int, seconds: float, profile: bool = False) -> dict:
    """Set up, warm up, time, drain, check; returns the full result record."""
    setup_runs = []
    scenario = pump = None
    for _repeat in range(1 if profile else config.SETUP_REPEATS):
        scenario = pump = None  # release the previous stack before timing the next
        gc.collect()
        started = time.perf_counter()
        scenario, pump = _set_up(workload, seed, seconds)
        setup_runs.append(time.perf_counter() - started)
    stack, env = scenario.stack, scenario.stack.env

    before = stack.counters()
    profiler = cProfile.Profile() if profile else None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if profiler is not None:
        profiler.enable()
    _timed(env, pump.done)
    if profiler is not None:
        profiler.disable()
    wall_s, cpu_s = time.perf_counter() - wall0, time.process_time() - cpu0
    after = stack.counters()

    env.run(until=env.now + scenario.drain_s())
    drained = stack.counters()

    attempted = scenario.requests
    served = len(pump.latencies)
    # A key absent from ``before`` belongs to a shard minted inside the region.
    counters = {key: after[key] - before.get(key, 0) for key in after}
    ordered = sorted(pump.latencies)
    slices = [b - a for a, b in zip(pump.marks, pump.marks[1:])]
    full_gcs = [b - a for a, b in zip(pump.full_gcs, pump.full_gcs[1:])]
    # A full collection over this heap costs as much as a slice; slices
    # that contain one say nothing about a neighbour on the core.
    quiet = [seconds for seconds, collections in zip(slices, full_gcs) if not collections]

    # ---- output checks: anything here makes the run incorrect.
    checks = list(dict.fromkeys(pump.wrong))[:5]
    checks.extend(stack.leak_report())
    if drained["shard.ledger_errors"]:
        checks.append(f"{drained['shard.ledger_errors']:g} shard boundaries with unequal frame ledgers")
    transit_decodes = counters["packet.wire_decodes"] - counters["client.data_received"]
    if transit_decodes > 0:
        checks.append(f"{transit_decodes:g} wire decodes beyond the consumers' own (transit must be 0)")
    if served + sum(pump.failures.values()) != attempted:
        checks.append("served + failed != attempted")

    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "attempted": attempted,
        "served": served,
        "failed": attempted - served,
        "failures": pump.failures,
        "exchanges": pump.exchanges,
        # Since the stack was built: every exchange has ended, so whatever
        # the clients sent beyond one Interest per exchange was sent twice.
        "retransmissions": after["client.interests_sent"] - pump.exchanges,
        "polls": pump.polls,
        "placed": pump.placed,
        "hashes": scenario.hashes,
        "counters": counters,
        "checks": checks,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "setup_runs_s": setup_runs,
        "slices_s": slices,
        "slice_full_gcs": full_gcs,
    }
    result["shape"] = scenario.shape(result)
    result["sim_digest"] = _digest(result, pump, drained)
    result["end_to_end"] = {
        "setup_s": statistics.median(setup_runs),
        "wall_us_per_request": wall_s / attempted * 1e6,
        "cpu_us_per_request": cpu_s / attempted * 1e6,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_latency_mean_ms": (sum(ordered) / served * 1e3) if served else 0.0,
        "sim_latency_p99_ms": (_percentile(ordered, 0.99) * 1e3) if served else 0.0,
        "wan_bytes_per_request": counters["wan.bytes"] / attempted,
        "first_try_fraction": pump.exchanges / after["client.interests_sent"],
    }
    result["harness"] = {
        "wall_cpu_ratio": wall_s / cpu_s,
        "slice_spread": _spread(quiet) if len(quiet) >= 8 else 0.0,
    }
    if profiler is not None:
        self_s, calls = layers.attribute(profiler)
        result["per_layer"] = _per_layer(
            result, scenario, pump, self_s, calls, before, after, drained
        )
        result["harness"]["layer_sum_ratio"] = sum(self_s.values()) / wall_s
    return result


def _digest(result: dict, pump: _Pump, drained: dict) -> str:
    """sha256 over the inputs' hashes and everything the simulation decided."""
    payload = {
        "hashes": result["hashes"],
        "counters": result["counters"],
        "after_drain": {key: drained[key] for key in
                        ("edge.pit.size", "gateway.pit.size", "datalake.pit.size",
                         "client.pending", "client.sessions", "shard.ledger_errors")},
        "outcomes": pump.outcomes.hexdigest(),
        "failures": result["failures"],
        "placed": result["placed"],
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _per_layer(result, scenario, pump, self_s, calls, before, after, drained) -> dict:
    """The per-layer table: host self time per request plus simulated counts."""
    n = result["attempted"]
    jobs = n if scenario.stack.clients else 0
    c = result["counters"]
    us = {layer: self_s.get(layer, 0.0) / n * 1e6 for layer in config.PER_LAYER}
    tiers = ("edge", "gateway", "datalake")

    def total(key: str) -> float:
        return sum(c[f"{tier}.{key}"] for tier in tiers)

    tracer = scenario.stack.overlay.tracer
    window = [ev for ev in tracer.events[before["tracer.records"]:after["tracer.records"]]
              if ev.category in ("shard", "overlay")]
    aborted = sum(int(ev.attrs.get("aborted", 0)) for ev in window if ev.category == "shard")
    recoveries = []
    driver = getattr(scenario, "driver", None)
    faults_applied = faults_skipped = 0
    if driver is not None:
        t0, t1 = before["env.now"], after["env.now"]
        for record in driver.records:
            if not t0 <= record.event.t <= t1:
                continue
            faults_applied += record.applied
            faults_skipped += not record.applied
            if record.applied and record.event.kind in DISRUPTIVE:
                at = bisect.bisect_left(pump.wan_served_at, record.event.t)
                if at < len(pump.wan_served_at):
                    recoveries.append(pump.wan_served_at[at] - record.event.t)
    shard_interests = [v for k, v in c.items() if "/shard" in k and k.endswith(".interests")]
    events = calls.get("engine:Environment.step", 0)
    pit_inserts = calls.get("pit:PendingInterestTable.insert", 0)
    admitted = [c[f"{name}.jobs_admitted"] for name in scenario.stack.clusters]

    values = {
        "workload.self_us": us["workload"],
        "workload.trace_build_s": scenario.trace_build_s,
        "ndn.client.self_us": us["ndn.client"],
        "ndn.client.interests_per_request": c["client.interests_sent"] / n,
        "ndn.client.retransmit_ratio": result["retransmissions"] / result["exchanges"],
        "ndn.client.timeouts": c["client.timeouts"],
        "ndn.client.nacks": c["client.nacks_received"],
        "ndn.face.self_us": us["ndn.face"],
        "ndn.face.sends_per_request": calls.get("face:Face.send", 0) / n,
        "ndn.face.drops": c["face.drops"],
        "ndn.forwarder.self_us": us["ndn.forwarder"],
        "ndn.forwarder.packets_per_request": total("packets") / n,
        "ndn.forwarder.nack_retries_per_request": total("nack_retries") / n,
        "ndn.cs.self_us": us["ndn.cs"],
        "ndn.cs.finds_per_request": (total("cs.hits") + total("cs.misses")) / n,
        "ndn.cs.inserts_per_request": total("cs.insertions") / n,
        "ndn.cs.evictions_per_request": total("cs.evictions") / n,
        "ndn.cs.hit_ratio_edge": _ratio(c["edge.cs.hits"], c["edge.cs.hits"] + c["edge.cs.misses"]),
        "ndn.cs.hit_ratio_gateway": _ratio(
            c["gateway.cs.hits"], c["gateway.cs.hits"] + c["gateway.cs.misses"]),
        "ndn.pit.self_us": us["ndn.pit"],
        "ndn.pit.inserts_per_request": pit_inserts / n,
        "ndn.pit.aggregated_ratio": _ratio(total("pit.aggregated"), pit_inserts),
        "ndn.pit.expired": total("pit.expired"),
        "ndn.fib.self_us": us["ndn.fib"],
        "ndn.fib.lookups_per_request": total("fib.lookups") / n,
        "ndn.strategy.self_us": us["ndn.strategy"],
        "ndn.strategy.hot_hit_ratio": _ratio(c["hot.hits"], c["hot.hits"] + c["hot.misses"]),
        "ndn.strategy.hot_insertions_per_request": c["hot.insertions"] / n,
        "ndn.shard.self_us": us["ndn.shard"],
        "ndn.shard.frames_per_request": c["shard.frames"] / n,
        "ndn.shard.max_shard_share": _ratio(max(shard_interests, default=0.0),
                                            sum(shard_interests)),
        "ndn.shard.resizes": c["shard.resizes"],
        "ndn.shard.pending_aborted": aborted,
        "ndn.packet.self_us": us["ndn.packet"],
        "ndn.packet.wire_decodes_per_request": c["packet.wire_decodes"] / n,
        "ndn.packet.span_scans_per_request": c["packet.span_scans"] / n,
        "ndn.packet.signs_per_request": calls.get("packet:Data.sign", 0) / n,
        "ndn.packet.bytes_per_request": c["face.bytes"] / n,
        "ndn.routing.self_us": us["ndn.routing"],
        "ndn.routing.updates": calls.get("routing:RoutingDaemon.receive", 0),
        "core.client.self_us": us["core.client"],
        "core.client.polls_per_job": _ratio(result["polls"], jobs),
        "core.client.sessions_leaked": drained["client.sessions"],
        "core.gateway.self_us": us["core.gateway"],
        "core.gateway.compute_interests_per_job": _ratio(c["gateway.compute_interests"], jobs),
        "core.gateway.capacity_nack_ratio": _ratio(
            c["gateway.compute_rejected_capacity"], c["gateway.compute_interests"]),
        "core.gateway.status_unknown_ratio": _ratio(
            c["gateway.status_unknown_job"], c["gateway.status_interests"]),
        "core.gateway.result_cache_hit_ratio": _ratio(
            c["gateway.cache_hits"], c["gateway.compute_interests"]),
        "core.service.self_us": us["core.service"],
        "core.service.validations_per_job": _ratio(
            calls.get("service:ServiceRegistry.validate", 0), jobs),
        "core.overlay.self_us": us["core.overlay"],
        "core.overlay.faults_applied": sum(1 for ev in window if ev.category == "overlay"),
        "cluster.self_us": us["cluster"],
        "cluster.jobs_admitted": c["gateway.jobs_admitted"],
        "cluster.reconciles_per_job": _ratio(calls.get("scheduler:Scheduler.reconcile", 0), jobs),
        "cluster.placement_max_share": _ratio(max(admitted), sum(admitted)),
        "cluster.utilization_mean": (
            sum(pump.utilisation) / len(pump.utilisation) if pump.utilisation else 0.0),
        "datalake.self_us": us["datalake"],
        "datalake.served_per_request": c["fileserver.served"] / n,
        "datalake.segment_cache_builds": c["fileserver.segment_objects"],
        "datalake.results_published": c["datalake.published"],
        "genomics.self_us": us["genomics"],
        "sim.engine.self_us": us["sim.engine"],
        "sim.engine.events_per_request": events / n,
        "sim.engine.us_per_event": _ratio(self_s.get("sim.engine", 0.0) * 1e6, events),
        "sim.engine.processes_per_request": calls.get("engine:Process.__init__", 0) / n,
        "sim.engine.peak_queue": pump.peak_queue,
        "sim.trace.self_us": us["sim.trace"],
        "sim.trace.records_per_request": c["tracer.records"] / n,
        "sim.metrics.self_us": us["sim.metrics"],
        "chaos.self_us": us["chaos"],
        "chaos.faults_applied": faults_applied,
        "chaos.faults_skipped": faults_skipped,
        "chaos.recovery_ms_p50": statistics.median(recoveries) * 1e3 if recoveries else 0.0,
    }
    return values
