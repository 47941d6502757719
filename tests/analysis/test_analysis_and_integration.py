"""Tests for the analysis layer plus whole-system integration scenarios.

The experiment runners double as integration tests: each one drives the full
stack (client → NDN overlay → gateway → Kubernetes → data lake) and its result
object encodes the *shape* the paper reports, which is asserted here.
"""

import pytest

from repro.analysis.experiments import (
    run_baseline_comparison,
    run_caching_ablation,
    run_concurrent_load,
    run_fig2_name_placement,
    run_fig3_service_mapping,
    run_fig5_workflow,
    run_overlay_churn,
    run_table1,
)
from repro.analysis.results import ResultTable, format_bytes, format_seconds
from repro.genomics.runtime_model import TABLE1_ROWS


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

    def test_result_table_render_and_columns(self):
        table = ResultTable(title="T", columns=["a", "b"])
        table.add_row(1, "x")
        table.add_row(22, "yy")
        table.add_note("a note")
        text = table.render()
        assert "T" in text and "a note" in text
        assert table.column_values("a") == [1, 22]
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_render_many(self):
        tables = [ResultTable(title=f"T{i}", columns=["x"]) for i in range(2)]
        assert "T0" in ResultTable.render_many(tables)


class TestTable1Reproduction:
    @pytest.fixture(scope="class")
    def table1(self):
        return run_table1(seed=0)

    def test_every_row_reproduced(self, table1):
        assert len(table1.measurements) == len(TABLE1_ROWS)

    def test_runtimes_match_paper_within_one_percent(self, table1):
        assert table1.max_runtime_error < 0.01
        # One row on its own, at another seed.
        rice = run_table1(seed=1, rows=TABLE1_ROWS[:1])
        assert [m.paper.srr_id for m in rice.measurements] == ["SRR2931415"]
        assert rice.max_runtime_error < 0.01

    def test_output_sizes_match_paper(self, table1):
        for measurement in table1.measurements:
            assert measurement.output_relative_error < 0.01

    def test_resource_variation_is_insignificant(self, table1):
        # The paper's takeaway: CPU/memory variation does not change run time much.
        assert table1.runtime_spread("SRR2931415") < 0.02
        assert table1.runtime_spread("SRR5139395") < 0.02

    def test_kidney_slower_than_rice(self, table1):
        rice = [m for m in table1.measurements if m.paper.srr_id == "SRR2931415"]
        kidney = [m for m in table1.measurements if m.paper.srr_id == "SRR5139395"]
        assert min(k.measured_runtime_s for k in kidney) > 2 * max(r.measured_runtime_s for r in rice)

    def test_table_rendering(self, table1):
        text = table1.to_table().render()
        assert "SRR2931415" in text and "941MB" in text


#: Each figure test runs its runner over a case table: a small case first,
#: then the seed and sizes the paper's figure is checked at.
OVERLAY_CHURN_CASES = [
    dict(seed=1, cluster_count=3, requests_per_phase=4, job_duration_s=30.0),
    dict(seed=0, cluster_count=3, requests_per_phase=6, job_duration_s=60.0),
    dict(seed=1, cluster_count=8, requests_per_phase=8, job_duration_s=30.0),
]
#: (runner arguments, end-to-end window in seconds): rice, then kidney.
FIG5_CASES = [
    (dict(seed=1), (29_000, 31_000)),
    (dict(seed=0), (29_000, 31_000)),
    (dict(seed=0, srr_id="SRR5139395", poll_interval_s=1800.0), (86_000, 90_000)),
]
CACHING_CASES = [
    dict(seed=1, repeats=4, job_duration_s=300.0),
    dict(seed=0, repeats=5, job_duration_s=900.0),
]
CONCURRENT_CASES = [
    dict(seed=1, jobs=10, job_duration_s=60.0, poll_interval_s=5.0),
    dict(seed=0, jobs=20, job_duration_s=120.0, poll_interval_s=10.0),
    dict(seed=1, jobs=24, job_duration_s=90.0, poll_interval_s=10.0, cluster_count=3),
]
BASELINE_CASES = [
    dict(seed=1, cluster_count=2, requests_per_phase=3, job_duration_s=20.0),
    dict(seed=0, cluster_count=3, requests_per_phase=6, job_duration_s=60.0),
]


class TestFigureExperiments:
    def test_fig2_name_placement_latencies(self):
        for seed in range(4):
            result = run_fig2_name_placement(seed=seed)
            assert 0 < result.data_manifest_latency_s < 1.0, seed
            assert result.data_payload_latency_s >= result.data_manifest_latency_s, seed
            assert 0 < result.compute_ack_latency_s < 1.0, seed
            # The repeated fetch is served from an on-path content store.
            assert result.cached_manifest_latency_s < result.data_manifest_latency_s, seed
            assert "Fig. 2" in result.to_table().title

    def test_fig3_service_mapping(self):
        for seed in (1, 0):
            result = run_fig3_service_mapping(seed=seed)
            assert 30000 <= result.node_port <= 32767, seed
            assert result.gateway_dns == "gateway-nfd.ndnk8s.svc.cluster.local", seed
            assert result.datalake_dns == "dl-nfd.ndnk8s.svc.cluster.local", seed
            assert result.datalake_cluster_ip.startswith("10.152."), seed
            assert result.gateway_endpoints >= 1, seed
            assert result.datalake_endpoints >= 1, seed
            assert result.system_pods_running >= 3, seed
            assert 0 < result.manifest_via_gateway_latency_s < 1.0, seed

    def test_fig5_computation_dominates(self):
        for case, (low, high) in FIG5_CASES:
            result = run_fig5_workflow(**case)
            assert result.report.succeeded, case
            assert result.compute_fraction() > 0.99, case
            assert result.step_seconds("submit_and_ack") < 1.0, case
            assert result.step_seconds("result_retrieval") < 1.0, case
            assert low < result.end_to_end_s < high, case

    def test_overlay_churn_keeps_placing_jobs(self):
        for case in OVERLAY_CHURN_CASES:
            result = run_overlay_churn(**case)
            assert result.success_before == 1.0, case
            assert result.success_after_leave == 1.0, case
            assert result.success_after_join == 1.0, case
            used_after_leave = {o.submission.cluster for o in result.outcomes_after_leave}
            used_after_join = {o.submission.cluster for o in result.outcomes_after_join}
            # The departed cluster gets no more work; the new cluster does.
            assert result.removed_cluster not in used_after_leave | used_after_join, case
            assert result.added_cluster in used_after_join, case

    def test_same_seed_same_result(self):
        # A runner is a pure function of its seed: results and tables repeat.
        for runner in (run_fig2_name_placement, run_fig3_service_mapping):
            first, second = runner(seed=0), runner(seed=0)
            assert first == second, runner.__name__
            assert first.to_table().render() == second.to_table().render(), runner.__name__


class TestAblations:
    def test_caching_ablation_speedup(self):
        for case in CACHING_CASES:
            result = run_caching_ablation(**case)
            # Without the cache every request recomputes; with it only the first.
            assert result.mean_cold_s > case["job_duration_s"], case
            assert result.first_latency_s > case["job_duration_s"], case
            assert result.mean_warm_s < 1.0, case
            assert result.speedup > 1000, case
            assert result.cache_hits >= result.request_count - 2, case

    def test_concurrent_load_beats_sequential(self):
        for case in CONCURRENT_CASES:
            result = run_concurrent_load(**case)
            jobs = case["jobs"]
            assert result.concurrent_completed == jobs, case
            assert result.sequential_completed == jobs, case
            assert result.concurrent_makespan_s < result.sequential_makespan_s, case
            # The batch is bounded by the slowest job plus detection overhead.
            assert result.concurrent_makespan_s < 2 * result.job_duration_s, case
            assert result.max_in_flight == jobs, case
            assert result.speedup > jobs / 2, case
            assert result.pending_after == 0, case
            # With more than one cluster, capacity Nacks spill work over.
            assert len(result.clusters_used) >= min(case.get("cluster_count", 1), 2), case
            assert "concurrent" in result.to_table().render()

    def test_baseline_comparison_availability(self):
        for case in BASELINE_CASES:
            result = run_baseline_comparison(**case)
            assert result.lidc_success_normal == 1.0, case
            assert result.central_success_normal == 1.0, case
            # The headline claim: LIDC survives a cluster failure, the centralized
            # controller does not survive its own failure.
            assert result.lidc_success_after_cluster_failure == 1.0, case
            assert result.central_success_after_controller_failure == 0.0, case
            # LIDC spreads work over more than one cluster without a controller.
            assert len(result.lidc_placements) >= 2, case
            assert "LIDC" in result.to_table().render()
