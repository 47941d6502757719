#!/usr/bin/env python3
"""Interleaved A/B pairs of the end-to-end benchmark between two git revisions.

::

    python3 benchmarks/ab.py BASE [--head REV] --workload W [W ...]
                             [--seeds 7 2024] [--pairs 10] [--seconds 10]

Each revision is ``git archive``d once into a temporary directory, so each
side imports its own ``src/``.  Every run is a fresh child
``run.py --workload W --seed S --seconds T --trace 0 --out F`` with
``PYTHONPATH`` cleared.  Workloads run one after another, and within one
the seeds do.  Pair ``i`` of a seed runs the base first when ``i`` is even
and the head first when it is odd, so the children alternate strictly
(A B, B A, A B, ...) and neither side always runs second.  A child that
crashes, or that reports failed requests, is recorded and reported, never
retried.

Per workload, seed and end-to-end metric it prints each side's median and
quartiles, the ratio of the medians, how many pairs the head won, and a
verdict against the metric's direction and bound in the head tree's
``BENCHMARK.json``:

* ``worse``: the head's median is worse than the base's by more than the
  metric's bound;
* ``too few``: otherwise, when fewer than 5 pairs are complete;
* ``better``: the head won at least 9 of every 10 pairs, and its median
  beats the base's by more than the base's interquartile range;
* ``same``: anything else.

Beside the wins it prints the one-sided sign-test p-value of that many
wins among the pairs that are not tied: the chance of winning at least as
often if the head were no different.

Each seed gets its own table, headed by whether every ``sim_digest`` of
both sides at that seed is the same.  Every run and every verdict go to
``BENCH_<head short rev>.json`` at the repository root, keyed by workload
and then by seed.  A later run at the same head adds its workloads and
seeds to that file: it replaces only the seeds it ran again, and a
workload it ran against another base or for another ``--seconds`` whole.
Passing the base as ``--head`` too gives an A/A run, the noise floor of
the machine.  A record of the older one-workload shape (no ``workloads``
key) is never merged into: the run stops before it starts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "head")
#: Below this many complete pairs no verdict but ``worse`` is given.
MIN_PAIRS = 5


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


def sign_test(wins: int, untied: int) -> float:
    """One-sided sign-test p-value: P(at least ``wins`` of ``untied`` fair coin flips)."""
    return sum(math.comb(untied, k) for k in range(wins, untied + 1)) / 2 ** untied


def verdict(base: list[float], head: list[float], better: str, bound: float) -> dict:
    """Judge one metric from its paired values (``base[i]`` and ``head[i]`` are pair ``i``)."""
    lower = better == "lower"
    b_q1, b_median, b_q3 = _quartiles(base)
    h_q1, h_median, h_q3 = _quartiles(head)
    wins = sum(1 for b, h in zip(base, head) if (h < b if lower else h > b))
    untied = sum(1 for b, h in zip(base, head) if h != b)
    gain = b_median - h_median if lower else h_median - b_median
    if -gain > bound * abs(b_median):
        call = "worse"
    elif len(base) < MIN_PAIRS:
        call = "too few"
    elif wins * 10 >= 9 * len(base) and gain > b_q3 - b_q1:
        call = "better"
    else:
        call = "same"
    return {
        "base": {"q1": b_q1, "median": b_median, "q3": b_q3},
        "head": {"q1": h_q1, "median": h_median, "q3": h_q3},
        "ratio": h_median / b_median if b_median else None,
        "wins": wins, "pairs": len(base), "p": sign_test(wins, untied), "verdict": call,
    }


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per seed: its runs, the problems seen, and over its complete pairs the
    digest equality and a verdict per metric."""
    seeds: dict[str, dict] = {}
    for seed in dict.fromkeys(run["seed"] for run in runs):
        seed_runs = [run for run in runs if run["seed"] == seed]
        problems = []
        by_pair: dict[int, dict[str, dict]] = {}
        for run in seed_runs:
            where = f"seed {seed} pair {run['pair']} {run['side']}"
            if "error" in run:
                problems.append(f"{where}: {run['error']}")
                continue
            if run["failed"]:
                problems.append(f"{where}: {run['failed']} failed requests")
            by_pair.setdefault(run["pair"], {})[run["side"]] = run
        pairs = [sides for _pair, sides in sorted(by_pair.items()) if len(sides) == 2]
        result: dict = {"runs": seed_runs, "problems": problems}
        if pairs:
            result["digests_equal"] = len({run["sim_digest"] for sides in pairs
                                           for run in sides.values()}) == 1
            result["metrics"] = {
                metric["name"]: verdict(
                    [sides["base"]["end_to_end"][metric["name"]] for sides in pairs],
                    [sides["head"]["end_to_end"][metric["name"]] for sides in pairs],
                    metric["better"], metric["bound"])
                for metric in metrics
            }
        seeds[str(seed)] = result
    return seeds


def merge(existing: "dict | None", new: dict) -> dict:
    """``new``'s workloads and seeds laid over a record of the same head.

    A seed run again replaces the earlier one; a workload run against
    another base or for another length replaces the earlier one whole.
    """
    if existing and "workloads" not in existing:
        raise ValueError(
            f"the record of {existing.get('head', '?')[:12]} holds one workload at its top "
            "level (the shape before workloads were keyed); merging would drop its runs, "
            "so move it aside first")
    if not existing or existing.get("head") != new["head"]:
        return new
    workloads = dict(existing.get("workloads", {}))
    for name, entry in new["workloads"].items():
        old = workloads.get(name)
        if old and (old["base"], old["seconds"]) == (entry["base"], entry["seconds"]):
            entry = {**entry, "seeds": {**old["seeds"], **entry["seeds"]}}
        workloads[name] = entry
    return {"head": new["head"], "workloads": workloads}


# ------------------------------------------------------------------ the runs


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _load(path: str) -> "dict | None":
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


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


def _print(workload: str, seeds: dict, metrics: list[dict]) -> None:
    for seed, result in seeds.items():
        if "metrics" in result:
            print(f"\n{workload} seed {seed}: sim_digest "
                  f"{'equal on both sides' if result['digests_equal'] else 'DIFFERS'}")
            print(f"{'metric':<24}{'base median [q1, q3]':>34}{'head median [q1, q3]':>34}"
                  f"{'ratio':>8}{'wins':>8}{'p':>8}  verdict")
            for metric in metrics:
                row = result["metrics"][metric["name"]]
                sides = [f"{row[side]['median']:.6g} [{row[side]['q1']:.6g}, {row[side]['q3']:.6g}]"
                         for side in SIDES]
                ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
                print(f"{metric['name']:<24}{sides[0]:>34}{sides[1]:>34}{ratio:>8}"
                      f"{row['wins']:>5}/{row['pairs']:<2}{row['p']:>8.3g}  {row['verdict']}")
        for problem in result["problems"]:
            print(f"problem: {workload} {problem}")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="the revision to compare against")
    parser.add_argument("--head", default="HEAD", help="the revision under test")
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--seeds", type=int, nargs="+", default=[7])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)

    revs = {"base": _git("rev-parse", "--verify", f"{args.base}^{{commit}}"),
            "head": _git("rev-parse", "--verify", f"{args.head}^{{commit}}")}
    record: dict = {"head": revs["head"], "workloads": {}}
    path = os.path.join(ROOT, f"BENCH_{_git('rev-parse', '--short', revs['head'])}.json")
    try:
        merge(_load(path), record)  # refuse a record it cannot merge before any child runs
    except ValueError as error:
        parser.error(f"{path}: {error}")
    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        trees = {side: os.path.join(scratch, side) for side in SIDES}
        for side in SIDES:
            _archive(revs[side], trees[side])
        with open(os.path.join(trees["head"], "BENCHMARK.json"), encoding="utf-8") as handle:
            metrics = json.load(handle)["end_to_end"]
        for workload in args.workload:
            runs = []
            for index, (seed, pair, side) in enumerate(schedule(args.seeds, args.pairs)):
                out = os.path.join(scratch, f"{workload}-{index}.json")
                run = {"seed": seed, "pair": pair, "side": side,
                       **_run_child(trees[side], workload, seed, args.seconds, out)}
                runs.append(run)
                shown = (run.get("error")
                         or f"{run['end_to_end']['wall_us_per_request']:.1f} us/request")
                print(f"{workload} seed {seed} pair {pair} {side}: {shown}", flush=True)
            seeds = summarize(runs, metrics)
            _print(workload, seeds, metrics)
            record["workloads"][workload] = {"base": revs["base"], "seconds": args.seconds,
                                             "seeds": seeds}

    merged = merge(_load(path), record)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=1, sort_keys=True)
    print(f"wrote {path}")
    results = [result for entry in record["workloads"].values()
               for result in entry["seeds"].values()]
    ok = all(result.get("digests_equal", False) and not result["problems"]
             for result in results)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
