"""``benchmarks/ab.py``: the pair schedule and the verdicts, on synthetic runs.

Nothing here starts a process or archives a revision: ``schedule``,
``verdict``, ``summarize`` and ``merge`` are pure functions of their
arguments.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

METRICS = [
    {"name": "wall_us_per_request", "better": "lower", "bound": 0.25},
    {"name": "first_try_fraction", "better": "higher", "bound": 0.03},
]


def _run(seed, pair, side, wall, first_try=0.9, digest="d", failed=0):
    return {"seed": seed, "pair": pair, "side": side, "sim_digest": digest, "failed": failed,
            "correct": True,
            "end_to_end": {"wall_us_per_request": wall, "first_try_fraction": first_try}}


def _runs(base, head, seed=7, **kwargs):
    runs = []
    for pair, (b, h) in enumerate(zip(base, head)):
        runs += [_run(seed, pair, "base", b, **kwargs), _run(seed, pair, "head", h, **kwargs)]
    return runs


class TestSchedule:
    def test_children_alternate_strictly_and_each_side_leads_half_the_pairs(self):
        order = ab.schedule([7], 4)
        assert [side for _seed, _pair, side in order] == [
            "base", "head", "head", "base", "base", "head", "head", "base"]
        assert [pair for _seed, pair, _side in order] == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_every_seed_gets_every_pair_once_per_side(self):
        order = ab.schedule([7, 11], 3)
        assert len(order) == len(set(order)) == 12
        assert [seed for seed, _pair, _side in order] == [7] * 6 + [11] * 6


class TestVerdict:
    def test_nine_wins_in_ten_beyond_the_base_spread_is_better(self):
        base = [100.0, 101, 99, 102, 100, 98, 101, 100, 99, 100]
        head = [80.0, 82, 79, 81, 80, 78, 81, 80, 79, 101]
        row = ab.verdict(base, head, "lower", 0.25)
        assert row["wins"] == 9 and row["verdict"] == "better"
        assert row["ratio"] == pytest.approx(80 / 100)

    def test_eight_wins_in_ten_is_not_better(self):
        base = [100.0] * 10
        head = [80.0] * 8 + [120.0, 120.0]
        assert ab.verdict(base, head, "lower", 0.25)["verdict"] == "same"

    def test_a_gain_inside_the_base_spread_is_not_better(self):
        base = [90.0, 110, 90, 110, 90, 110, 90, 110, 90, 110]
        head = [b - 1 for b in base]
        row = ab.verdict(base, head, "lower", 0.25)
        assert row["wins"] == 10 and row["verdict"] == "same"

    def test_worse_beyond_the_bound_is_worse(self):
        assert ab.verdict([100.0] * 10, [130.0] * 10, "lower", 0.25)["verdict"] == "worse"
        assert ab.verdict([100.0] * 10, [120.0] * 10, "lower", 0.25)["verdict"] == "same"

    def test_worse_is_reported_at_any_sample_size(self):
        assert ab.verdict([100.0] * 2, [130.0] * 2, "lower", 0.25)["verdict"] == "worse"

    def test_two_wins_in_two_are_too_few(self):
        # With no real change, 2 of 2 wins happen one time in four.
        row = ab.verdict([100.0, 101.0], [80.0, 81.0], "lower", 0.25)
        assert row["wins"] == 2 and row["p"] == 0.25
        assert row["verdict"] == "too few"
        assert ab.verdict([100.0] * 4, [80.0] * 4, "lower", 0.25)["verdict"] == "too few"

    def test_nine_wins_in_ten_carry_their_sign_test_p_value(self):
        base = [100.0, 101, 99, 102, 100, 98, 101, 100, 99, 100]
        head = [80.0, 82, 79, 81, 80, 78, 81, 80, 79, 101]
        row = ab.verdict(base, head, "lower", 0.25)
        assert row["p"] == pytest.approx(11 / 1024)  # about 0.011
        assert row["verdict"] == "better"

    def test_ties_are_left_out_of_the_sign_test(self):
        assert ab.sign_test(5, 5) == 1 / 32
        row = ab.verdict([100.0] * 10, [100.0] * 5 + [90.0] * 5, "lower", 0.25)
        assert row["wins"] == 5 and row["p"] == 1 / 32

    def test_higher_is_better_metrics_are_judged_the_other_way(self):
        assert ab.verdict([0.5] * 10, [0.6] * 10, "higher", 0.03)["verdict"] == "better"
        assert ab.verdict([0.5] * 10, [0.4] * 10, "higher", 0.03)["verdict"] == "worse"

    def test_identical_values_are_the_same(self):
        row = ab.verdict([0.9] * 10, [0.9] * 10, "higher", 0.03)
        assert row["wins"] == 0 and row["verdict"] == "same" and row["ratio"] == 1.0
        assert row["p"] == 1.0


class TestSummarize:
    def test_verdicts_and_digests_are_per_seed(self):
        runs = _runs([100.0] * 10, [80.0] * 10, seed=7) + _runs(
            [100.0] * 10, [100.0] * 10, seed=11, digest="e")
        seeds = ab.summarize(runs, METRICS)
        assert list(seeds) == ["7", "11"]
        assert seeds["7"]["problems"] == seeds["11"]["problems"] == []
        assert seeds["7"]["metrics"]["wall_us_per_request"]["verdict"] == "better"
        assert seeds["11"]["metrics"]["wall_us_per_request"]["verdict"] == "same"
        assert seeds["7"]["metrics"]["first_try_fraction"]["verdict"] == "same"
        assert seeds["7"]["digests_equal"] and seeds["11"]["digests_equal"]
        assert seeds["7"]["runs"] == runs[:20] and seeds["11"]["runs"] == runs[20:]

    def test_a_digest_that_differs_between_sides_is_reported(self):
        runs = _runs([100.0] * 2, [100.0] * 2)
        runs[1]["sim_digest"] = "other"
        assert ab.summarize(runs, METRICS)["7"]["digests_equal"] is False

    def test_crashed_and_failing_runs_are_reported_and_a_crash_drops_its_pair(self):
        runs = _runs([100.0] * 3, [90.0] * 3)
        runs[2] = {"seed": 7, "pair": 1, "side": "head", "error": "exit code 1: boom"}
        runs[4]["failed"] = 2
        seed = ab.summarize(runs, METRICS)["7"]
        assert seed["problems"] == ["seed 7 pair 1 head: exit code 1: boom",
                                    "seed 7 pair 2 base: 2 failed requests"]
        assert seed["metrics"]["wall_us_per_request"]["pairs"] == 2

    def test_a_seed_whose_every_run_crashed_keeps_its_problems(self):
        runs = [{"seed": 7, "pair": 0, "side": side, "error": "exit code 1: boom"}
                for side in ab.SIDES]
        seed = ab.summarize(runs, METRICS)["7"]
        assert len(seed["problems"]) == 2 and "metrics" not in seed


def _record(head, workloads, base="b", seconds=10.0):
    """A ``BENCH_*.json`` record: ``workloads`` maps a name to its seeds' walls."""
    return {"head": head, "workloads": {
        name: {"base": base, "seconds": seconds, "seeds": {
            str(seed): {"runs": [], "problems": [], "wall": wall}
            for seed, wall in seeds.items()}}
        for name, seeds in workloads.items()}}


def _walls(record):
    return {name: {seed: result["wall"] for seed, result in entry["seeds"].items()}
            for name, entry in record["workloads"].items()}


class TestMerge:
    def test_a_second_workload_at_one_head_is_added_not_overwritten(self):
        merged = ab.merge(_record("h", {"data_hot": {7: 1.0}}),
                          _record("h", {"data_scan": {7: 2.0}}))
        assert _walls(merged) == {"data_hot": {"7": 1.0}, "data_scan": {"7": 2.0}}

    def test_several_workloads_of_one_run_all_land(self):
        merged = ab.merge(None, _record("h", {"data_hot": {7: 1.0}, "chaos_retry": {7: 3.0}}))
        assert _walls(merged) == {"data_hot": {"7": 1.0}, "chaos_retry": {"7": 3.0}}

    def test_a_new_seed_is_added_and_a_rerun_seed_replaced(self):
        merged = ab.merge(_record("h", {"data_hot": {7: 1.0, 11: 1.5}}),
                          _record("h", {"data_hot": {11: 9.0, 4242: 2.0}}))
        assert _walls(merged) == {"data_hot": {"7": 1.0, "11": 9.0, "4242": 2.0}}

    def test_another_base_or_length_replaces_the_workload_whole(self):
        old = _record("h", {"data_hot": {7: 1.0}})
        assert _walls(ab.merge(old, _record("h", {"data_hot": {11: 2.0}}, base="c"))) == {
            "data_hot": {"11": 2.0}}
        assert _walls(ab.merge(old, _record("h", {"data_hot": {11: 2.0}}, seconds=3.0))) == {
            "data_hot": {"11": 2.0}}

    def test_a_record_of_another_head_is_dropped(self):
        merged = ab.merge(_record("g", {"data_hot": {7: 1.0}}),
                          _record("h", {"data_scan": {7: 2.0}}))
        assert _walls(merged) == {"data_scan": {"7": 2.0}}

    def test_a_one_workload_record_is_refused_not_dropped(self):
        # BENCH_ef41f5c.json predates the workload key: its runs sit at the
        # top level.  Merging into it must not lose them.
        old = json.loads((_PATH.parent.parent / "BENCH_ef41f5c.json").read_text(encoding="utf-8"))
        assert "workloads" not in old and old["runs"]
        with pytest.raises(ValueError, match="one workload"):
            ab.merge(old, _record(old["head"], {"data_scan": {7: 2.0}}))
