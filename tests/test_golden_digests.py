"""Golden ``sim_digest`` of every benchmark workload at two seeds.

A pass's ``sim_digest`` hashes everything it decided on the simulated clock:
every counter delta (trace records included), every request's outcome and
latency, and where each job ran.  A pure speed-up keeps all of them.  A
design change moves some, and re-blesses them in the same change::

    REPRO_BLESS=1 python -m pytest tests/test_golden_digests.py

which rewrites ``golden_digests.json``; the change then says which counter
moved.  The passes are the benchmark's own ``measure.run_pass`` at
``--seconds 0.1``, untraced, imported the way
``benchmarks/e2e/test_e2e_smoke.py`` imports them (about 4 s in all).
"""

from __future__ import annotations

import importlib.util
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden_digests.json")
SECONDS = 0.1
SEEDS = (5, 7)


def _load_runner():
    path = os.path.join(ROOT, "benchmarks", "e2e", "run.py")
    spec = importlib.util.spec_from_file_location("e2e_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # also puts benchmarks/e2e and src on sys.path
    return module


_load_runner()
from e2ebench import config, measure  # noqa: E402  (run.py set the path up)


def test_every_workload_keeps_its_golden_digest():
    digests = {
        workload: {str(seed): measure.run_pass(workload, seed, SECONDS)["sim_digest"]
                   for seed in SEEDS}
        for workload in config.WORKLOADS
    }
    if os.environ.get("REPRO_BLESS") == "1":
        with open(GOLDEN, "w", encoding="utf-8") as handle:
            json.dump({"seconds": SECONDS, "digests": digests}, handle, indent=2, sort_keys=True)
            handle.write("\n")
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    assert golden["seconds"] == SECONDS
    moved = {
        f"{workload} seed {seed}": (want[:12], digests[workload][seed][:12])
        for workload, by_seed in golden["digests"].items()
        for seed, want in by_seed.items()
        if digests.get(workload, {}).get(seed) != want
    }
    assert not moved, f"sim_digest moved (golden, now): {moved}"
    assert digests.keys() == golden["digests"].keys()
