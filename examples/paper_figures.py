#!/usr/bin/env python3
"""Every table, figure and ablation of the paper, from one entry point.

Each runner in :mod:`repro.analysis` builds its own testbed, drives the
full stack (client → NDN overlay → gateway → Kubernetes → data lake) in
simulated time, and returns a structured result whose ``to_table()`` is
the paper-style table printed here:

* Fig. 1 — placement across a multi-cluster overlay while clusters leave
  and join;
* Fig. 2 — data and compute placed transparently by name;
* Figs. 3 & 4 — the NDN-to-Kubernetes service mapping;
* Fig. 5 — the four-step workflow protocol (submit, ack, status, result);
* Table I — BLAST run time and output size per SRA sample;
* the result-caching ablation (paper §VII): a repeated identical request
  is answered from the gateway's cache;
* many concurrent job sessions through one client;
* the decentralized overlay against a centralized controller.

A runner is a pure function of its arguments, so its default seed prints
the same tables on every run.  ``tests/analysis/test_analysis_and_integration.py``
asserts the paper's shape on the same results.  The whole script takes
about two seconds.

Run with::

    python examples/paper_figures.py
"""

import _path_setup  # noqa: F401  (adds src/ to sys.path for source checkouts)

from repro.analysis import (
    ResultTable,
    run_baseline_comparison,
    run_caching_ablation,
    run_concurrent_load,
    run_fig2_name_placement,
    run_fig3_service_mapping,
    run_fig5_workflow,
    run_overlay_churn,
    run_table1,
)


def main() -> None:
    results = [
        run_overlay_churn(),
        run_fig2_name_placement(),
        run_fig3_service_mapping(),
        run_fig5_workflow(),
        run_table1(),
        run_caching_ablation(),
        run_concurrent_load(),
        run_baseline_comparison(),
    ]
    print(ResultTable.render_many(result.to_table() for result in results))


if __name__ == "__main__":
    main()
