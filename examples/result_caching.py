#!/usr/bin/env python3
"""Result caching for repeated identical requests (paper §VII).

The paper's future-work section proposes caching the results of identical
requests.  This example repeats one named request against a cache-enabled
cluster and shows the orders-of-magnitude latency drop.

Run with::

    python examples/result_caching.py
"""

import _path_setup  # noqa: F401

from repro.analysis.experiments import run_caching_ablation


def main() -> None:
    print("Measuring the benefit of result caching for repeated identical requests...")
    ablation = run_caching_ablation(seed=2, repeats=5, job_duration_s=900.0)
    print("\n" + ablation.to_table().render() + "\n")

    print(f"Summary: caching answers repeated requests {ablation.speedup:,.0f}x faster.")


if __name__ == "__main__":
    main()
