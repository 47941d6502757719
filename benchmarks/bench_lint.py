"""Benchmark ``lint`` — the reprolint summary cache under the dataflow layer.

The dataflow layer (CFG construction + escape/leak analysis per function,
RL013-RL014) runs in the per-module phase, which is exactly the
phase the :class:`SummaryCache` elides on a warm run: flow summaries ride
the same content-hash records as symbols and effects, so an unchanged tree
costs only the project phase.  Two claims, each measured the repo-standard
way (interleaved pairs, median of paired ratios):

1. *Warm vs cold full-tree lint*: the complete ``src/`` + ``benchmarks/``
   tree through the full RL001-RL014 catalog, cold (fresh cache) vs warm
   (same tree, same cache).  Gate: warm <= 0.8x cold wall clock — the
   cache must keep absorbing the per-module cost now that the per-module
   phase carries the dataflow pass.
2. *Full catalog warm vs PR7-catalog warm*: the warm run under
   RL001-RL014 against the warm run under the pre-dataflow ruleset (RL001-RL012
   only; a different rule list means a different cache signature, so each
   side owns its cache file).  Gate: full <= 1.5x PR7 — the dataflow
   layer's warm-path cost is bounded by the project phase it adds, not by
   re-running the analysis.

Plus the correctness invariant either way: the warm report is
finding-for-finding identical to the cold one.
"""

from __future__ import annotations

import statistics
import tempfile
import time
from pathlib import Path

from repro.analysis.lint import Linter, SummaryCache, default_rules

REPO_ROOT = Path(__file__).resolve().parents[1]
TREE = [REPO_ROOT / "src", REPO_ROOT / "benchmarks"]

#: The interprocedural catalog as of PR 7 — everything below the dataflow
#: layer.  Rule ids are zero-padded, so the lexicographic cut is exact.
PR7_RULE_CEILING = "RL012"


def pr7_rules():
    return [rule for rule in default_rules() if rule.id <= PR7_RULE_CEILING]


def _finding_key(report):
    return [(f.rule, f.path, f.line, f.message, f.waived) for f in report.findings]


def measure_cold_warm(linter: Linter, warm_runs: int = 3) -> tuple[float, float]:
    """One cold run and the best of ``warm_runs`` warm runs, in seconds.

    A cold sample needs a fresh cache file, so cold is single-shot per
    call; the warm side takes the best of N (the repo's best-of-N
    practice — min filters one-sided scheduler noise).  Both sides must
    produce the identical report, or the cache is lying and the timing
    is meaningless.
    """
    with tempfile.TemporaryDirectory() as tmp:
        cache_path = Path(tmp) / "cache.json"
        cache = SummaryCache(cache_path, linter.config_signature())
        start = time.perf_counter()
        cold_report = linter.lint_paths(TREE, cache=cache)
        cold_s = time.perf_counter() - start
        assert cache.misses > 0 and cache.hits == 0

        warm_s = float("inf")
        for _run in range(warm_runs):
            cache = SummaryCache(cache_path, linter.config_signature())
            start = time.perf_counter()
            warm_report = linter.lint_paths(TREE, cache=cache)
            warm_s = min(warm_s, time.perf_counter() - start)
            assert cache.misses == 0 and cache.hits > 0, (
                "warm run missed the cache — content hashing or the config "
                "signature regressed"
            )
            assert _finding_key(warm_report) == _finding_key(cold_report), (
                "warm report diverged from cold — summaries are dropping facts"
            )
    return cold_s, warm_s


def run_benchmark(reps: int = 5, verbose: bool = True) -> dict:
    def log(message: str) -> None:
        if verbose:
            print(message)

    full = Linter()
    pr7 = Linter(rules=pr7_rules())
    assert full.config_signature() != pr7.config_signature(), (
        "rule-list change must change the cache signature"
    )

    # Interleaved pairs: each rep measures full-catalog and PR7 back to
    # back (order alternating), so multi-second machine drift cancels in
    # the paired ratios.
    cold_samples, warm_samples = [], []
    pr7_warm_samples, warm_ratios, catalog_ratios = [], [], []
    for rep in range(reps):
        if rep % 2 == 0:
            cold_s, warm_s = measure_cold_warm(full)
            _pr7_cold, pr7_warm = measure_cold_warm(pr7)
        else:
            _pr7_cold, pr7_warm = measure_cold_warm(pr7)
            cold_s, warm_s = measure_cold_warm(full)
        cold_samples.append(cold_s)
        warm_samples.append(warm_s)
        pr7_warm_samples.append(pr7_warm)
        warm_ratios.append(warm_s / cold_s)
        catalog_ratios.append(warm_s / pr7_warm)

    cold_median = statistics.median(cold_samples)
    warm_median = statistics.median(warm_samples)
    pr7_warm_median = statistics.median(pr7_warm_samples)
    warm_ratio = statistics.median(warm_ratios)
    catalog_ratio = statistics.median(catalog_ratios)

    log(f"full catalog: cold {cold_median * 1e3:.0f}ms, warm "
        f"{warm_median * 1e3:.0f}ms = {warm_ratio:.3f}x cold "
        f"(median paired ratio over {reps} reps)")
    log(f"warm catalog cost: RL001-014 {warm_median * 1e3:.0f}ms vs "
        f"RL001-012 {pr7_warm_median * 1e3:.0f}ms = {catalog_ratio:.2f}x "
        "(median paired ratio, separate cache signatures)")

    # Gates.
    assert warm_ratio <= 0.8, (
        f"warm lint only {warm_ratio:.2f}x of cold — the summary cache is "
        "no longer absorbing the per-module dataflow cost"
    )
    assert catalog_ratio <= 1.5, (
        f"warm full-catalog lint is {catalog_ratio:.2f}x the PR7-catalog "
        "warm run — the dataflow layer is leaking work into the warm path"
    )
    log("PASS: warm <= 0.8x cold, full-catalog warm <= 1.5x PR7 warm, "
        "warm report identical to cold")

    return {
        "cold_ms": cold_median * 1e3,
        "warm_ms": warm_median * 1e3,
        "warm_over_cold": warm_ratio,
        "warm_over_cold_samples": warm_ratios,
        "pr7_warm_ms": pr7_warm_median * 1e3,
        "full_over_pr7_warm": catalog_ratio,
        "full_over_pr7_warm_samples": catalog_ratios,
        "cold_samples_ms": [s * 1e3 for s in cold_samples],
        "warm_samples_ms": [s * 1e3 for s in warm_samples],
    }


# ------------------------------------------------------------ pytest entries


def test_lint_cache_meets_the_bar():
    """Warm <= 0.8x cold; full-catalog warm <= 1.5x PR7-catalog warm."""
    run_benchmark(reps=3, verbose=False)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small, CI-sized run (seconds, not minutes)")
    args = parser.parse_args()
    run_benchmark(reps=3 if args.smoke else 5)
