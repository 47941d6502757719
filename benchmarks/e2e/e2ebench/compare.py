"""``run.py compare A.json B.json``: did B move any end-to-end metric against A?

Per workload and metric: each side's median and quartiles, the ratio B/A
with its base, and a verdict.

Host-time metrics are noisy, so the two sides are pooled and judged against
the metric's bound in ``BENCHMARK.json``:

* ``unresolved`` — either side's own spread (IQR / median) is wider than
  the bound, so a move of that size cannot be told from noise;
* ``worse`` / ``better`` — the medians differ by more than the bound, in
  that direction;
* ``same`` — anything else.

Simulated metrics repeat exactly at a fixed seed, so the two sides are
paired by seed and no bound is needed: ``same`` means every pair is equal,
``worse`` / ``better`` that every seed that moved moved that way, however
little, and ``unresolved`` that the files share no seed or that seeds moved
both ways.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from collections import defaultdict

from e2ebench import config


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _relative(new: float, old: float) -> float:
    """(new - old) / |old|; a move away from exactly 0 is infinitely large."""
    if old:
        return (new - old) / abs(old)
    return 0.0 if new == old else math.copysign(math.inf, new - old)


def _load(path: str) -> dict[str, dict[str, dict[int, float]]]:
    """workload -> metric -> seed -> value."""
    with open(path, encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    table: dict = defaultdict(lambda: defaultdict(dict))
    for run in runs:
        for name, value in run["end_to_end"].items():
            table[run["workload"]][name][run["seed"]] = value
    return table


def verdict(a: dict[int, float], b: dict[int, float], better: str, bound: float,
            exact: bool = False) -> str:
    """``a`` and ``b`` map seed -> value; ``exact`` marks a simulated metric."""
    sign = -1.0 if better == "higher" else 1.0
    if exact:
        changes = [sign * _relative(b[seed], a[seed]) for seed in sorted(set(a) & set(b))]
        if not changes:
            return "unresolved"
        if not any(changes):
            return "same"
        if min(changes) < 0.0 < max(changes):
            return "unresolved"
        return "worse" if max(changes) > 0.0 else "better"
    q1a, med_a, q3a = _quartiles(list(a.values()))
    q1b, med_b, q3b = _quartiles(list(b.values()))
    spread = max(_relative(q3a, med_a) - _relative(q1a, med_a),  # IQR / |median|
                 _relative(q3b, med_b) - _relative(q1b, med_b))
    if spread > bound:
        return "unresolved"
    change = sign * _relative(med_b, med_a)
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(path_a: str, path_b: str, benchmark_json: str) -> list[dict]:
    with open(benchmark_json, encoding="utf-8") as handle:
        metrics = {m["name"]: m for m in json.load(handle)["end_to_end"]}
    side_a, side_b = _load(path_a), _load(path_b)
    rows = []
    for workload in side_a:
        for name, metric in metrics.items():
            a, b = side_a[workload][name], side_b[workload][name]
            if not a or not b:
                continue
            q1a, med_a, q3a = _quartiles(list(a.values()))
            q1b, med_b, q3b = _quartiles(list(b.values()))
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "a": (q1a, med_a, q3a), "b": (q1b, med_b, q3b), "runs": (len(a), len(b)),
                "ratio": med_b / med_a if med_a else 1.0 + _relative(med_b, med_a),
                "bound": metric["bound"],
                "verdict": verdict(a, b, metric["better"], metric["bound"],
                                   exact=name in config.SIMULATED),
            })
    return rows


def main(argv: list[str], benchmark_json: str) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    rows = compare(argv[0], argv[1], benchmark_json)
    if not rows:
        print(f"{argv[0]} and {argv[1]} share no workload", file=sys.stderr)
        return 2
    print(f"{'workload':<14}{'metric':<24}{'A median [q1, q3]':>40}{'B median [q1, q3]':>40}"
          f"{'B/A':>9}{'bound':>7}  verdict")
    for row in rows:
        a = "{1:.6g} [{0:.6g}, {2:.6g}]".format(*row["a"])
        b = "{1:.6g} [{0:.6g}, {2:.6g}]".format(*row["b"])
        bound = "exact" if row["metric"] in config.SIMULATED else f"{row['bound']:.2f}"
        print(f"{row['workload']:<14}{row['metric']:<24}{a:>40}{b:>40}"
              f"{row['ratio']:>9.4f}{bound:>7}  {row['verdict']}")
    print(f"\nratio base: A = {argv[0]} ({rows[0]['runs'][0]} runs per workload), "
          f"B = {argv[1]} ({rows[0]['runs'][1]} runs)")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0
