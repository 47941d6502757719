#!/usr/bin/env python3
"""Every table, figure and ablation of the paper, from one entry point.

:data:`repro.analysis.EXPERIMENTS` is the paper's run table: one row per
experiment, with its runner and the *paper* level printed here.  Each
runner builds its own testbed, drives the full stack (client → NDN overlay
→ gateway → Kubernetes → data lake) in simulated time, and returns the
paper-style table printed here:

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

A runner is a pure function of its level, so the script prints the same
tables on every run.  ``tests/analysis/test_analysis_and_integration.py``
checks the paper's shape on the same table, at the paper level and at the
row's shrunk levels.  The whole script takes about two seconds.

Run with::

    python examples/paper_figures.py
"""

import _path_setup  # noqa: F401  (adds src/ to sys.path for source checkouts)

from repro.analysis import EXPERIMENTS, ResultTable


def main() -> None:
    print(ResultTable.render_many(experiment.run(**experiment.paper)
                                  for experiment in EXPERIMENTS))


if __name__ == "__main__":
    main()
