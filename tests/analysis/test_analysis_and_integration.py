"""Tests for the analysis layer plus whole-system integration scenarios.

The paper's run table doubles as integration tests: each experiment drives
the full stack (client → NDN overlay → gateway → Kubernetes → data lake),
and the ``measures`` of the table it returns encode the *shape* the paper
reports.  :data:`CHECKS` asserts that shape, per experiment, at the paper
level and at every shrunk level of :data:`EXPERIMENTS`.
"""

import pytest

from repro.analysis import EXPERIMENTS, ResultTable, format_bytes, format_seconds


class TestFormatting:
    @pytest.mark.parametrize("value,expected", [
        (941_000_000, "941MB"), (2_710_000_000, "2.71GB"), (1_000, "1KB"),
        (512, "512B"), (None, "-"), (1_500_000_000_000, "1.5TB"),
        # Rounding up to 1000 of a unit prints the next unit.
        (999_600, "1MB"), (999_999_999, "1GB"),
    ])
    def test_format_bytes(self, value, expected):
        assert format_bytes(value) == expected

    @pytest.mark.parametrize("value,expected", [
        (29390, "8h9m50s"), (87372, "24h16m12s"), (90, "1m30s"), (1.25, "1.25s"), (None, "-"),
        (59.996, "1m0s"),
    ])
    def test_format_seconds(self, value, expected):
        assert format_seconds(value) == expected

    def test_result_table_render_and_rows(self):
        table = ResultTable(title="T", columns=["a", "b"])
        table.add_row(1, "x")
        table.add_row(22, "yy")
        table.add_note("a note")
        text = table.render()
        assert "T" in text and "a note" in text
        assert [row[0] for row in table.rows] == [1, 22]
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_render_many(self):
        tables = [ResultTable(title=f"T{i}", columns=["x"]) for i in range(2)]
        assert "T0" in ResultTable.render_many(tables)


# ---------------------------------------------------------------------------
# The checks, one per experiment: each reads the table's measures (and, where
# the paper's shape is about the rendering, the table itself) at one level.
# ---------------------------------------------------------------------------

#: Fig. 5's end-to-end window in seconds, per sample: rice, then kidney.
FIG5_WINDOWS = {"SRR2931415": (29_000, 31_000), "SRR5139395": (86_000, 90_000)}


def check_overlay_churn(table, level):
    m = table.measures
    assert m["success_before"] == 1.0
    assert m["success_after_leave"] == 1.0
    assert m["success_after_join"] == 1.0
    # The departed cluster gets no more work; the new cluster does.
    assert m["removed_cluster_jobs_after_leave"] == 0
    assert m["added_cluster_jobs"] >= 1


def check_name_placement(table, level):
    m = table.measures
    assert 0 < m["data_manifest_latency_s"] < 1.0
    assert m["data_payload_latency_s"] >= m["data_manifest_latency_s"]
    assert 0 < m["compute_ack_latency_s"] < 1.0
    # The repeated fetch is served from an on-path content store.
    assert m["cached_manifest_latency_s"] < m["data_manifest_latency_s"]
    assert "Fig. 2" in table.title


def check_service_mapping(table, level):
    m = table.measures
    assert 30000 <= m["node_port"] <= 32767
    assert m["gateway_dns"] == "gateway-nfd.ndnk8s.svc.cluster.local"
    assert m["datalake_dns"] == "dl-nfd.ndnk8s.svc.cluster.local"
    assert m["datalake_cluster_ip"].startswith("10.152.")
    assert m["gateway_endpoints"] >= 1
    assert m["datalake_endpoints"] >= 1
    assert m["system_pods_running"] >= 3
    assert 0 < m["manifest_via_gateway_latency_s"] < 1.0


def check_workflow(table, level):
    m = table.measures
    low, high = FIG5_WINDOWS[level["srr_id"]]
    assert m["succeeded"]
    assert m["compute_fraction"] > 0.99
    assert m["submit_and_ack_s"] < 1.0
    assert m["result_retrieval_s"] < 1.0
    assert low < m["end_to_end_s"] < high


def check_table1(table, level):
    m = table.measures
    # Every configuration of the level is reproduced, in order.
    assert [row[0] for row in table.rows] == [row.srr_id for row in level["rows"]]
    assert m["max_runtime_error"] < 0.01
    assert m["max_output_error"] < 0.01
    # The paper's takeaway: CPU/memory variation does not change run time much.
    assert m["runtime_spread_rice"] < 0.02
    assert m["runtime_spread_kidney"] < 0.02
    if {row.srr_id for row in level["rows"]} == set(FIG5_WINDOWS):
        # Kidney is the slower sample, by more than twice.
        assert m["kidney_over_rice"] > 2
    text = table.render()
    assert "SRR2931415" in text and "941MB" in text


def check_caching_ablation(table, level):
    m = table.measures
    # Without the cache every request recomputes; with it only the first.
    assert m["mean_cold_s"] > level["job_duration_s"]
    assert m["first_latency_s"] > level["job_duration_s"]
    assert m["mean_warm_s"] < 1.0
    assert m["speedup"] > 1000
    assert m["cache_hits"] >= level["repeats"] - 2


def check_concurrent_load(table, level):
    m, jobs = table.measures, level["jobs"]
    assert m["concurrent_completed"] == jobs
    assert m["sequential_completed"] == jobs
    assert m["concurrent_makespan_s"] < m["sequential_makespan_s"]
    # The batch is bounded by the slowest job plus detection overhead.
    assert m["concurrent_makespan_s"] < 2 * level["job_duration_s"]
    assert m["max_in_flight"] == jobs
    assert m["speedup"] > jobs / 2
    assert m["pending_after"] == 0
    # With more than one cluster, capacity Nacks spill work over.
    assert m["clusters_used"] >= min(level["cluster_count"], 2)
    assert "concurrent" in table.render()


def check_baseline_comparison(table, level):
    m = table.measures
    assert m["lidc_success_normal"] == 1.0
    assert m["central_success_normal"] == 1.0
    # The headline claim: LIDC survives a cluster failure, the centralized
    # controller does not survive its own failure.
    assert m["lidc_success_after_cluster_failure"] == 1.0
    assert m["central_success_after_controller_failure"] == 0.0
    # LIDC spreads work over more than one cluster without a controller.
    assert m["lidc_clusters_used"] >= 2
    assert "LIDC" in table.render()


CHECKS = {
    "fig1_overlay_churn": check_overlay_churn,
    "fig2_name_placement": check_name_placement,
    "fig3_service_mapping": check_service_mapping,
    "fig5_workflow": check_workflow,
    "table1": check_table1,
    "caching_ablation": check_caching_ablation,
    "concurrent_load": check_concurrent_load,
    "baseline_comparison": check_baseline_comparison,
}

BY_NAME = {experiment.name: experiment for experiment in EXPERIMENTS}

#: Every (experiment, level) pair of the run table: the paper level first.
RUNS = [
    pytest.param(experiment, level,
                 id=f"{experiment.name}-{'paper' if index == 0 else f'shrunk{index}'}")
    for experiment in EXPERIMENTS
    for index, level in enumerate((experiment.paper, *experiment.shrunk))
]


def test_every_experiment_has_a_check():
    assert set(CHECKS) == set(BY_NAME)


@pytest.mark.parametrize("experiment,level", RUNS)
def test_experiment_has_the_paper_shape(experiment, level):
    CHECKS[experiment.name](experiment.run(**level), level)


@pytest.mark.parametrize("name", ["fig2_name_placement", "fig3_service_mapping"])
def test_same_seed_same_table(name):
    # A runner is a pure function of its level: measures and tables repeat.
    experiment = BY_NAME[name]
    first, second = experiment.run(**experiment.paper), experiment.run(**experiment.paper)
    assert first == second
    assert first.render() == second.render()
