"""Tier-1 smoke test of the end-to-end benchmark (about 1 % of a real run).

Runs all four workloads, untraced and traced, in-process, and checks what
must hold at any size: the printed metric names and units are the ones
``BENCHMARK.json`` declares, the layer table sums to the traced region, the
simulated digest repeats, outputs check out, and each workload keeps the
part of its shape that survives shrinking.  The full-size shape and the
layer-separation thresholds are ``run.py --selfcheck``.
"""

from __future__ import annotations

import importlib.util
import json
import os
import re

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SMOKE_SECONDS = 0.1  # 1 % of run_seconds
SMOKE_SEED = 5


def _load_runner():
    spec = importlib.util.spec_from_file_location("e2e_run", os.path.join(HERE, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # also puts benchmarks/e2e and src on sys.path
    return module


e2e_run = _load_runner()
from e2ebench import compare, config, measure  # noqa: E402  (run.py set the path up)


@pytest.fixture(scope="module")
def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def records(tmp_path_factory) -> dict:
    """Every workload measured once: untraced attempt(s) plus the traced pass."""
    results_dir = str(tmp_path_factory.mktemp("e2e-results"))
    return {
        workload: e2e_run.measure(
            workload, SMOKE_SEED, SMOKE_SECONDS, trace=True,
            run_pass=measure.run_pass, results_dir=results_dir,
            max_attempts=1,  # 7 requests a slice say nothing about a neighbour
        )
        for workload in config.WORKLOADS
    }


def test_benchmark_json_meets_the_contract(benchmark_json):
    assert set(benchmark_json) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert benchmark_json["paths"] == ["benchmarks/e2e"]
    assert benchmark_json["command"][-1].startswith("benchmarks/e2e/")
    assert benchmark_json["run_seconds"] == config.RUN_SECONDS
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer")
             for row in benchmark_json[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}", name) for name in names)
    assert all(len(row["why"]) <= 200 and "\n" not in row["why"]
               for row in benchmark_json["workloads"])
    assert all(0 < row["bound"] <= 0.25 for row in benchmark_json["end_to_end"])
    setup = next(row for row in benchmark_json["end_to_end"] if row["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(row["bound"] for row in benchmark_json["end_to_end"])
    assert len(benchmark_json["per_layer"]) == 78


def test_benchmark_json_matches_the_config(benchmark_json):
    assert {row["name"]: row["why"] for row in benchmark_json["workloads"]} == {
        name: why for name, (why, _rate) in config.WORKLOADS.items()}
    assert {row["name"]: (row["unit"], row["better"], row["bound"])
            for row in benchmark_json["end_to_end"]} == config.END_TO_END
    assert [(row["name"], row["unit"], row["better"])
            for row in benchmark_json["per_layer"]] == [
        (f"{layer}.{suffix}", unit, better)
        for layer, rows in config.PER_LAYER.items() for suffix, unit, better in rows]


@pytest.mark.parametrize("trace", [False, True])
def test_printed_names_and_units_are_the_declared_ones(records, benchmark_json, trace):
    declared = benchmark_json["per_layer" if trace else "end_to_end"]
    for record in records.values():
        line = json.loads(e2e_run.contract_line(record, trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["attempted"] >= 1 and line["failed"] == 0
        assert {name: entry["unit"] for name, entry in line["metrics"].items()} == {
            row["name"]: row["unit"] for row in declared}
        assert all(isinstance(entry["value"], (int, float))
                   for entry in line["metrics"].values())


def test_outputs_check_out_and_the_digest_repeats(records):
    for workload, record in records.items():
        assert record["correct"], (workload, record["problems"])
        # The traced pass is a second run of the same seed.
        assert record["traced"]["sim_digest"] == record["sim_digest"], workload
        assert record["traced"]["hashes"] == record["attempts"][-1]["hashes"]


def test_end_to_end_metrics_are_never_zero(records):
    for workload, record in records.items():
        for name, value in record["end_to_end"].items():
            assert value > 0, (workload, name)


def test_layer_self_times_sum_to_the_traced_region(records):
    low, high = config.LAYER_SUM_RANGE
    for workload, record in records.items():
        values = record["per_layer"]
        assert low <= values["harness.layer_sum_ratio"] <= high, workload
        layers = [layer for layer in config.PER_LAYER if layer != "harness"]
        summed = sum(values[f"{layer}.self_us"] for layer in layers)
        traced = record["traced"]["wall_s"] / record["attempted"] * 1e6
        assert summed == pytest.approx(traced, rel=0.02), workload
        assert values["harness.trace_overhead_ratio"] > 1.0


def test_workloads_keep_their_shape_when_shrunk(records):
    scan = records["data_scan"]["traced"]["counters"]
    assert scan["edge.cs.hits"] == scan["gateway.cs.hits"] == scan["hot.hits"] == 0
    assert scan["fileserver.served"] > 0
    assert records["data_scan"]["per_layer"]["ndn.packet.bytes_per_request"] > 8192

    hot = records["data_hot"]["per_layer"]
    assert hot["ndn.cs.hit_ratio_edge"] > 0 and hot["ndn.client.retransmit_ratio"] == 0
    assert hot["core.gateway.self_us"] == hot["core.client.self_us"] == 0

    compute = records["compute_place"]["per_layer"]
    assert 8 <= compute["core.client.polls_per_job"] <= 40
    assert compute["cluster.jobs_admitted"] >= records["compute_place"]["attempted"]
    assert compute["cluster.self_us"] > 0 and compute["core.gateway.self_us"] > 0
    assert compute["datalake.results_published"] > 0

    chaos = records["chaos_retry"]["per_layer"]
    assert chaos["chaos.faults_applied"] >= 40
    assert chaos["ndn.shard.resizes"] == 2
    assert chaos["ndn.client.retransmit_ratio"] > 0
    assert chaos["ndn.routing.updates"] > 0


def test_every_attempt_is_written_to_the_result_file(records, tmp_path):
    calls = []

    def disturbed_then_quiet(workload, seed, seconds, profile):
        record = json.loads(json.dumps(records[workload]["attempts"][-1]))
        record["harness"] = {"wall_cpu_ratio": 1.5 if not calls else 1.0, "slice_spread": 0.0}
        calls.append(profile)
        return record

    record = e2e_run.measure("data_hot", SMOKE_SEED, SMOKE_SECONDS, trace=False,
                             run_pass=disturbed_then_quiet, results_dir=str(tmp_path))
    assert [attempt["disturbed"] for attempt in record["attempts"]] == [True, False]
    with open(tmp_path / f"data_hot-seed{SMOKE_SEED}-trace0.json", encoding="utf-8") as handle:
        assert len(json.load(handle)["attempts"]) == 2


def test_compare_verdicts():
    def by_seed(values, first_seed=1):
        return dict(enumerate(values, first_seed))

    steady = by_seed([100.0, 101.0, 99.0, 100.5, 99.5])
    scaled = lambda factor: {seed: value * factor for seed, value in steady.items()}  # noqa: E731
    assert compare.verdict(steady, steady, "lower", 0.05) == "same"
    assert compare.verdict(steady, scaled(1.2), "lower", 0.05) == "worse"
    assert compare.verdict(steady, scaled(0.8), "lower", 0.05) == "better"
    assert compare.verdict(steady, scaled(0.8), "higher", 0.05) == "worse"
    ragged = by_seed([80.0, 100.0, 120.0, 90.0, 110.0])
    assert compare.verdict(ragged, steady, "lower", 0.05) == "unresolved"
    assert compare.verdict(by_seed([0.0] * 5), by_seed([0.0] * 5), "lower", 0.05) == "same"
    # Simulated metrics: paired by seed, exact, whatever the seed-to-seed spread.
    assert compare.verdict(ragged, dict(ragged), "lower", 0.05, exact=True) == "same"
    assert compare.verdict(ragged, {**ragged, 3: 120.5}, "lower", 0.05, exact=True) == "worse"
    assert compare.verdict(ragged, {**ragged, 3: 120.5}, "higher", 0.05, exact=True) == "better"
    assert compare.verdict(ragged, {**ragged, 1: 79.0, 3: 120.5}, "lower", 0.05,
                           exact=True) == "unresolved"
    assert compare.verdict(ragged, by_seed(ragged.values(), 50), "lower", 0.05,
                           exact=True) == "unresolved"


def test_the_extra_workload_runs_but_is_not_declared(benchmark_json):
    declared = {row["name"] for row in benchmark_json["workloads"]}
    assert declared == set(config.WORKLOADS) and not declared & set(config.EXTRA_WORKLOADS)
    for workload in config.EXTRA_WORKLOADS:
        record = measure.run_pass(workload, SMOKE_SEED, SMOKE_SECONDS, profile=True)
        assert not record["checks"], (workload, record["checks"])
