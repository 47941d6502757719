#!/usr/bin/env python3
"""Interleaved A/B pairs of the end-to-end benchmark between two git revisions.

::

    python3 benchmarks/ab.py BASE [--head REV] --workload W [--seeds 7 2024]
                             [--pairs 10] [--seconds 10]

Each revision is ``git archive``d once into a temporary directory, so each
side imports its own ``src/``.  Every run is a fresh child
``run.py --workload W --seed S --seconds T --trace 0 --out F`` with
``PYTHONPATH`` cleared.  Pair ``i`` of a seed runs the base first when ``i``
is even and the head first when it is odd, so the children alternate
strictly (A B, B A, A B, ...) and neither side always runs second.  A child
that crashes, or that reports failed requests, is recorded and reported,
never retried.

Per seed and end-to-end metric it prints each side's median and quartiles,
the ratio of the medians, how many pairs the head won, and a verdict
against the metric's direction and bound in the head tree's
``BENCHMARK.json``:

* ``better``: the head won at least 9 of every 10 pairs, and its median
  beats the base's by more than the base's interquartile range;
* ``worse``: the head's median is worse than the base's by more than the
  metric's bound;
* ``same``: anything else.

Each seed gets its own table, headed by whether every ``sim_digest`` of
both sides at that seed is the same.  Every run and every verdict go to
``BENCH_<head short rev>.json`` at the repository root.  Passing the base
as ``--head`` too gives an A/A run, the noise floor of the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "head")


def schedule(seeds: list[int], pairs: int) -> list[tuple[int, int, str]]:
    """The runs in the order they are made: ``(seed, pair, side)``."""
    order = []
    for seed in seeds:
        for pair in range(pairs):
            first, second = SIDES if pair % 2 == 0 else SIDES[::-1]
            order += [(seed, pair, first), (seed, pair, second)]
    return order


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(base: list[float], head: list[float], better: str, bound: float) -> dict:
    """Judge one metric from its paired values (``base[i]`` and ``head[i]`` are pair ``i``)."""
    lower = better == "lower"
    b_q1, b_median, b_q3 = _quartiles(base)
    h_q1, h_median, h_q3 = _quartiles(head)
    wins = sum(1 for b, h in zip(base, head) if (h < b if lower else h > b))
    gain = b_median - h_median if lower else h_median - b_median
    if wins * 10 >= 9 * len(base) and gain > b_q3 - b_q1:
        call = "better"
    elif -gain > bound * abs(b_median):
        call = "worse"
    else:
        call = "same"
    return {
        "base": {"q1": b_q1, "median": b_median, "q3": b_q3},
        "head": {"q1": h_q1, "median": h_median, "q3": h_q3},
        "ratio": h_median / b_median if b_median else None,
        "wins": wins, "pairs": len(base), "verdict": call,
    }


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per seed: digest equality and a verdict per metric; and the problems seen."""
    problems = []
    by_pair: dict[tuple[int, int], dict[str, dict]] = {}
    for run in runs:
        where = f"seed {run['seed']} pair {run['pair']} {run['side']}"
        if "error" in run:
            problems.append(f"{where}: {run['error']}")
            continue
        if run["failed"]:
            problems.append(f"{where}: {run['failed']} failed requests")
        by_pair.setdefault((run["seed"], run["pair"]), {})[run["side"]] = run
    complete: dict[int, list[dict[str, dict]]] = {}
    for (seed, _pair), sides in sorted(by_pair.items()):
        if len(sides) == 2:
            complete.setdefault(seed, []).append(sides)
    seeds = {}
    for seed, pairs in complete.items():
        seeds[str(seed)] = {
            "digests_equal": len({run["sim_digest"] for sides in pairs
                                  for run in sides.values()}) == 1,
            "metrics": {
                metric["name"]: verdict(
                    [sides["base"]["end_to_end"][metric["name"]] for sides in pairs],
                    [sides["head"]["end_to_end"][metric["name"]] for sides in pairs],
                    metric["better"], metric["bound"])
                for metric in metrics
            },
        }
    return {"seeds": seeds, "problems": problems}


# ------------------------------------------------------------------ the runs


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _archive(rev: str, into: str) -> None:
    os.makedirs(into)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)


def _run_child(tree: str, workload: str, seed: int, seconds: float, out: str) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    command = [sys.executable, os.path.join("benchmarks", "e2e", "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
               "--trace", "0", "--out", out]
    done = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, check=False)
    try:
        with open(out, encoding="utf-8") as handle:
            record = json.load(handle)["runs"][0]
    except (OSError, ValueError, KeyError, IndexError):
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit code {done.returncode}: {tail[0]}"}
    return {key: record[key] for key in ("end_to_end", "sim_digest", "failed", "correct")}


def _print(summary: dict, metrics: list[dict]) -> None:
    for seed, result in summary["seeds"].items():
        print(f"\nseed {seed}: sim_digest "
              f"{'equal on both sides' if result['digests_equal'] else 'DIFFERS'}")
        print(f"{'metric':<24}{'base median [q1, q3]':>34}{'head median [q1, q3]':>34}"
              f"{'ratio':>8}{'wins':>8}  verdict")
        for metric in metrics:
            row = result["metrics"][metric["name"]]
            sides = [f"{row[side]['median']:.6g} [{row[side]['q1']:.6g}, {row[side]['q3']:.6g}]"
                     for side in SIDES]
            ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
            print(f"{metric['name']:<24}{sides[0]:>34}{sides[1]:>34}{ratio:>8}"
                  f"{row['wins']:>5}/{row['pairs']:<2}  {row['verdict']}")
    for problem in summary["problems"]:
        print(f"problem: {problem}")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="the revision to compare against")
    parser.add_argument("--head", default="HEAD", help="the revision under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[7])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)

    revs = {"base": _git("rev-parse", "--verify", f"{args.base}^{{commit}}"),
            "head": _git("rev-parse", "--verify", f"{args.head}^{{commit}}")}
    runs = []
    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        trees = {side: os.path.join(scratch, side) for side in SIDES}
        for side in SIDES:
            _archive(revs[side], trees[side])
        with open(os.path.join(trees["head"], "BENCHMARK.json"), encoding="utf-8") as handle:
            metrics = json.load(handle)["end_to_end"]
        for index, (seed, pair, side) in enumerate(schedule(args.seeds, args.pairs)):
            out = os.path.join(scratch, f"run-{index}.json")
            run = {"seed": seed, "pair": pair, "side": side,
                   **_run_child(trees[side], args.workload, seed, args.seconds, out)}
            runs.append(run)
            shown = run.get("error") or f"{run['end_to_end']['wall_us_per_request']:.1f} us/request"
            print(f"seed {seed} pair {pair} {side}: {shown}", flush=True)

    summary = summarize(runs, metrics)
    _print(summary, metrics)
    short = _git("rev-parse", "--short", revs["head"])
    path = os.path.join(ROOT, f"BENCH_{short}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"base": revs["base"], "head": revs["head"], "workload": args.workload,
                   "seeds": args.seeds, "pairs": args.pairs, "seconds": args.seconds,
                   "runs": runs, **summary}, handle, indent=1, sort_keys=True)
    print(f"wrote {path}")
    equal = all(result["digests_equal"] for result in summary["seeds"].values())
    return 0 if equal and not summary["problems"] else 1


if __name__ == "__main__":
    sys.exit(main())
