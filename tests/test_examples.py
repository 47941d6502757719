"""Every example script runs to completion and exits 0.

The examples are the readers' entry points, and the ``src/`` lint gate
counts their calls as uses (RL012), so each one runs here on every
supported Python.  A script runs in a fresh interpreter, from a
directory outside the checkout (an example must find ``src/`` itself),
under a timeout.  ``multicluster_failover.py`` is also a check: it exits
non-zero when a phase re-walks non-owning gateways or a fail-over fails.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
SCRIPTS = sorted(path for path in EXAMPLES.glob("*.py") if not path.name.startswith("_"))
TIMEOUT_S = 120


@pytest.mark.parametrize("script", SCRIPTS, ids=[path.stem for path in SCRIPTS])
def test_example_runs(script, tmp_path):
    run = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )
    assert run.returncode == 0, f"{script.name} exited {run.returncode}:\n{run.stderr}"
    assert run.stdout.strip(), f"{script.name} printed nothing"
