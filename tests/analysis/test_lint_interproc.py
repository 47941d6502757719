"""Interprocedural reprolint layer: call graph, effects, RL009-RL012,
summary cache, and the diff-aware CLI modes.

The transitive-rule fixtures are deliberately three modules deep: the
protected caller, an intermediate helper in another package, and the
module holding the actual sink — so every firing below proves the effect
crossed at least two call-graph hops and two module boundaries, and the
witness chain names every hop.
"""

from __future__ import annotations

import json
import subprocess
import time
from pathlib import Path

import pytest

from repro.analysis.lint import (
    Linter,
    SourceFile,
    SummaryCache,
    default_rules,
)
from repro.analysis.lint.callgraph import ProjectIndex
from repro.analysis.lint.cli import main as lint_main
from repro.analysis.lint.engine import SummaryRule
from repro.analysis.lint.report import diff_reports, parse_json, render_json
from repro.analysis.lint.symbols import summarize

REPO_ROOT = Path(__file__).resolve().parents[2]


def lint_fixture(modules: dict[str, str]):
    """Lint an in-memory multi-module project (sorted for determinism)."""
    return Linter().lint_modules(
        [SourceFile(display, text) for display, text in sorted(modules.items())]
    )


# --------------------------------------------------------------------------
# RL009: blocking reachable from a hot loop, two module hops away
# --------------------------------------------------------------------------

_RL009_ENGINE = (
    "from repro.core.helper_a import drain\n"
    "\n"
    "def run():\n"
    "    drain()\n"
)
_RL009_HELPERS = {
    "src/repro/core/helper_a.py": (
        "from repro.core.helper_b import wait_io\n"
        "\n"
        "def drain():\n"
        "    wait_io()\n"
    ),
    "src/repro/core/helper_b.py": (
        "import time\n"
        "\n"
        "def wait_io():\n"
        "    time.sleep(0.1)\n"
    ),
}


def test_rl009_fires_across_two_module_hops():
    report = lint_fixture(
        {"src/repro/sim/engine.py": _RL009_ENGINE, **_RL009_HELPERS}
    )
    findings = [f for f in report.unwaived if f.rule == "RL009"]
    assert len(findings) == 1, [f.as_dict() for f in report.findings]
    finding = findings[0]
    # The finding sits at the boundary call site inside the hot loop...
    assert finding.path == "src/repro/sim/engine.py"
    assert finding.line == 4
    # ...and the message carries the whole witness chain down to the sink.
    assert (
        "engine.run → helper_a.drain → helper_b.wait_io → time.sleep"
        in finding.message
    )
    assert "src/repro/core/helper_b.py:4" in finding.message
    # The structured chain mirrors it for JSON consumers.
    assert [hop["function"] for hop in finding.chain] == [
        "repro.sim.engine.run",
        "repro.core.helper_a.drain",
        "repro.core.helper_b.wait_io",
        "time.sleep",
    ]
    assert finding.chain[-1]["path"] == "src/repro/core/helper_b.py"
    assert finding.chain[-1]["line"] == 4
    # No cascade: the helpers themselves are out of scope and stay clean.
    assert not any(
        f.rule == "RL009" and "helper" in f.path for f in report.findings
    )


def test_rl009_waivable_at_the_boundary_call():
    engine = _RL009_ENGINE.replace(
        "    drain()",
        "    drain()  # lint: allow[RL009] startup drain may block briefly",
    )
    report = lint_fixture(
        {"src/repro/sim/engine.py": engine, **_RL009_HELPERS}
    )
    assert report.ok, [f.as_dict() for f in report.unwaived]
    waived = [f for f in report.waived if f.rule == "RL009"]
    assert len(waived) == 1
    assert waived[0].waiver_reason == "startup drain may block briefly"


def test_rl009_sanctioned_at_the_sink():
    helpers = dict(_RL009_HELPERS)
    helpers["src/repro/core/helper_b.py"] = helpers[
        "src/repro/core/helper_b.py"
    ].replace(
        "    time.sleep(0.1)",
        "    time.sleep(0.1)  # lint: allow[RL009] fixture: sanctioned block",
    )
    report = lint_fixture({"src/repro/sim/engine.py": _RL009_ENGINE, **helpers})
    # The sink waiver stops propagation entirely: no boundary finding...
    assert report.ok, [f.as_dict() for f in report.unwaived]
    # ...the suppression surfaces as a waived finding at the sink line...
    sanctioned = [f for f in report.waived if f.rule == "RL009"]
    assert len(sanctioned) == 1
    assert sanctioned[0].path == "src/repro/core/helper_b.py"
    assert sanctioned[0].line == 4
    assert "sanctioned sink" in sanctioned[0].message
    # ...and the waiver registers as used (no RL000 stale-waiver finding).
    assert not any(f.rule == "RL000" for f in report.findings)


# --------------------------------------------------------------------------
# RL010: wall clock reachable from sim through another package
# --------------------------------------------------------------------------

_RL010_MODULES = {
    "src/repro/sim/metrics.py": (
        "from repro.core.timeutil import stamp\n"
        "\n"
        "def record():\n"
        "    return stamp()\n"
    ),
    "src/repro/core/timeutil.py": (
        "from repro.core.clockio import read_clock\n"
        "\n"
        "def stamp():\n"
        "    return read_clock()\n"
    ),
    "src/repro/core/clockio.py": (
        "import time\n"
        "\n"
        "def read_clock():\n"
        "    return time.time()\n"
    ),
}


def test_rl010_fires_with_witness_chain():
    report = lint_fixture(_RL010_MODULES)
    findings = [f for f in report.unwaived if f.rule == "RL010"]
    assert len(findings) == 1, [f.as_dict() for f in report.findings]
    finding = findings[0]
    assert finding.path == "src/repro/sim/metrics.py"
    assert finding.line == 4
    assert (
        "metrics.record → timeutil.stamp → clockio.read_clock → time.time"
        in finding.message
    )
    assert [hop["function"] for hop in finding.chain] == [
        "repro.sim.metrics.record",
        "repro.core.timeutil.stamp",
        "repro.core.clockio.read_clock",
        "time.time",
    ]


def test_rl010_waivable_at_the_boundary_call():
    modules = dict(_RL010_MODULES)
    modules["src/repro/sim/metrics.py"] = modules[
        "src/repro/sim/metrics.py"
    ].replace(
        "    return stamp()",
        "    return stamp()  # lint: allow[RL010] diagnostics-only timestamp",
    )
    report = lint_fixture(modules)
    assert report.ok, [f.as_dict() for f in report.unwaived]
    assert [f.rule for f in report.waived] == ["RL010"]


def test_rl010_rng_helper_is_a_barrier():
    modules = {
        "src/repro/sim/metrics.py": (
            "from repro.sim.rng import jitter\n"
            "\n"
            "def record():\n"
            "    return jitter()\n"
        ),
        # repro.sim.rng is the sanctioned entropy authority: its own
        # nondeterminism never propagates to callers.
        "src/repro/sim/rng.py": (
            "import os\n"
            "\n"
            "def jitter():\n"
            "    return os.urandom(1)\n"
        ),
    }
    report = lint_fixture(modules)
    assert not any(f.rule == "RL010" for f in report.findings), [
        f.as_dict() for f in report.findings
    ]


def test_rl010_carries_set_iteration_across_packages():
    # RL002's third sink: hash-seed-ordered iteration in a helper is as
    # nondeterministic for its sim caller as a clock read.
    modules = {
        "src/repro/sim/stepper.py": (
            "from repro.core.helpers import spread\n"
            "\n"
            "def step(items):\n"
            "    return spread(items)\n"
        ),
        "src/repro/core/helpers.py": (
            "def spread(items):\n"
            "    for item in set(items):\n"
            "        yield item\n"
        ),
    }
    report = lint_fixture(modules)
    findings = [f for f in report.unwaived if f.rule == "RL010"]
    assert len(findings) == 1, [f.as_dict() for f in report.findings]
    finding = findings[0]
    assert finding.path == "src/repro/sim/stepper.py"
    assert finding.line == 4
    assert finding.message.startswith("hash-order set iteration reachable")
    assert (
        "stepper.step → helpers.spread → iteration over set(...)"
        in finding.message
    )
    assert finding.chain[-1] == {
        "function": "iteration over set(...)",
        "path": "src/repro/core/helpers.py",
        "line": 2,
    }


# --------------------------------------------------------------------------
# One sink table: every sink form fires its line-local rule where it is
# written and its transitive rule through an out-of-scope helper
# --------------------------------------------------------------------------

# (form, line-local rule, transitive rule, in-scope caller path, import, body)
SINK_FORMS = [
    ("bare-decode", "RL001", "RL011", "src/repro/ndn/forwarder.py",
     "", "return b.decode()"),
    ("Interest", "RL001", "RL011", "src/repro/ndn/forwarder.py",
     "from repro.ndn.packet import Interest", "return Interest(b)"),
    ("Data.decode", "RL001", "RL011", "src/repro/ndn/forwarder.py",
     "from repro.ndn.packet import Data", "return Data.decode(b)"),
    ("time.monotonic", "RL002", "RL010", "src/repro/sim/metrics.py",
     "import time", "return time.monotonic()"),
    ("datetime.now", "RL002", "RL010", "src/repro/sim/metrics.py",
     "import datetime", "return datetime.datetime.now()"),
    ("os.urandom", "RL002", "RL010", "src/repro/sim/metrics.py",
     "import os", "return os.urandom(4)"),
    ("uuid.uuid4", "RL002", "RL010", "src/repro/sim/metrics.py",
     "import uuid", "return uuid.uuid4()"),
    ("secrets.token_hex", "RL002", "RL010", "src/repro/sim/metrics.py",
     "import secrets", "return secrets.token_hex()"),
    ("set-iteration", "RL002", "RL010", "src/repro/sim/metrics.py",
     "", "for x in set(s):\n        return x"),
    ("time.sleep", "RL003", "RL009", "src/repro/sim/engine.py",
     "import time", "time.sleep(0)"),
    ("subprocess.run", "RL003", "RL009", "src/repro/sim/engine.py",
     "import subprocess", "subprocess.run([])"),
]


@pytest.mark.parametrize(
    "form,local_rule,transitive_rule,caller_path,import_line,body",
    SINK_FORMS,
    ids=[row[0] for row in SINK_FORMS],
)
def test_sink_form_fires_both_rule_layers(
    form, local_rule, transitive_rule, caller_path, import_line, body
):
    sink_source = f"{import_line}\ndef sink(b, s):\n    {body}\n"
    sink_line = 3

    direct = lint_fixture({caller_path: sink_source})
    assert any(
        f.rule == local_rule and f.line == sink_line and not f.waived
        for f in direct.findings
    ), (form, [f.as_dict() for f in direct.findings])

    helper_path = "src/repro/core/sinkhelper.py"
    transitive = lint_fixture({
        caller_path: (
            "from repro.core.sinkhelper import sink\n"
            "\n"
            "def caller(b, s):\n"
            "    return sink(b, s)\n"
        ),
        helper_path: sink_source,
    })
    found = [f for f in transitive.unwaived if f.rule == transitive_rule]
    assert len(found) == 1, (form, [f.as_dict() for f in transitive.findings])
    assert (found[0].path, found[0].line) == (caller_path, 4)
    assert (found[0].chain[-1]["path"], found[0].chain[-1]["line"]) == (
        helper_path, sink_line,
    )


# --------------------------------------------------------------------------
# RL011: packet materialisation reachable from the forwarding plane
# --------------------------------------------------------------------------

_RL011_MODULES = {
    "src/repro/ndn/forwarder.py": (
        "from repro.core.peek import inspect_packet\n"
        "\n"
        "def on_data(buf):\n"
        "    return inspect_packet(buf)\n"
    ),
    "src/repro/core/peek.py": (
        "from repro.core.parse import parse_fields\n"
        "\n"
        "def inspect_packet(buf):\n"
        "    return parse_fields(buf)\n"
    ),
    "src/repro/core/parse.py": (
        "def parse_fields(buf):\n"
        "    return buf.decode()\n"
    ),
}


def test_rl011_fires_with_witness_chain():
    report = lint_fixture(_RL011_MODULES)
    findings = [f for f in report.unwaived if f.rule == "RL011"]
    assert len(findings) == 1, [f.as_dict() for f in report.findings]
    finding = findings[0]
    assert finding.path == "src/repro/ndn/forwarder.py"
    assert finding.line == 4
    assert (
        "forwarder.on_data → peek.inspect_packet → parse.parse_fields"
        in finding.message
    )
    assert finding.chain[-1]["function"] == ".decode()"
    assert finding.chain[-1]["line"] == 2


def test_rl011_waivable_at_the_boundary_call():
    modules = dict(_RL011_MODULES)
    modules["src/repro/ndn/forwarder.py"] = modules[
        "src/repro/ndn/forwarder.py"
    ].replace(
        "    return inspect_packet(buf)",
        "    return inspect_packet(buf)"
        "  # lint: allow[RL011] management face: decode is the point",
    )
    report = lint_fixture(modules)
    assert report.ok, [f.as_dict() for f in report.unwaived]
    assert [f.rule for f in report.waived] == ["RL011"]


def test_rl011_endpoint_handoff_is_exempt():
    modules = dict(_RL011_MODULES)
    # The same helper chain rooted in the sanctioned endpoint module is
    # architecture, not a violation.
    modules["src/repro/ndn/client.py"] = modules.pop("src/repro/ndn/forwarder.py")
    report = lint_fixture(modules)
    assert not any(f.rule == "RL011" for f in report.findings), [
        f.as_dict() for f in report.findings
    ]


# --------------------------------------------------------------------------
# RL012: dead exports stay advisory
# --------------------------------------------------------------------------


def test_rl012_reports_dead_export_as_advisory():
    modules = {
        "src/repro/core/libx.py": (
            '__all__ = ["used_helper", "unused_helper"]\n'
            "\n"
            "def used_helper():\n"
            "    return 1\n"
            "\n"
            "def unused_helper():\n"
            "    return 2\n"
        ),
        "src/repro/core/consumer.py": (
            "from repro.core.libx import used_helper\n"
            "\n"
            "def _call():\n"
            "    return used_helper()\n"
        ),
    }
    report = lint_fixture(modules)
    assert report.ok  # advisories never gate
    advisories = report.advisories
    assert [f.rule for f in advisories] == ["RL012"]
    assert "unused_helper" in advisories[0].message
    assert advisories[0].line == 6
    assert not any("'used_helper'" in f.message for f in advisories)


# --------------------------------------------------------------------------
# Call-graph structure: callbacks and class-hierarchy dispatch
# --------------------------------------------------------------------------


def test_callback_reference_becomes_an_edge():
    engine = (
        "from repro.core.helper_b import wait_io\n"
        "\n"
        "def schedule(cb):\n"
        "    cb()\n"
        "\n"
        "def run():\n"
        "    schedule(wait_io)\n"
    )
    report = lint_fixture(
        {
            "src/repro/sim/engine.py": engine,
            "src/repro/core/helper_b.py": _RL009_HELPERS[
                "src/repro/core/helper_b.py"
            ],
        }
    )
    findings = [f for f in report.unwaived if f.rule == "RL009"]
    # Passing wait_io as a callback is a may-call edge: the registration
    # line is the boundary.
    assert any(f.line == 7 for f in findings), [f.as_dict() for f in findings]


def test_self_method_dispatch_resolves_through_hierarchy():
    modules = {
        "src/repro/sim/engine.py": (
            "from repro.core.workers import Worker\n"
            "\n"
            "class Loop:\n"
            "    def turn(self, worker):\n"
            "        self._step(worker)\n"
            "\n"
            "    def _step(self, worker):\n"
            "        worker.spin_down()\n"
        ),
        "src/repro/core/workers.py": (
            "import time\n"
            "\n"
            "class Worker:\n"
            "    def spin_down(self):\n"
            "        time.sleep(0.5)\n"
        ),
    }
    report = lint_fixture(modules)
    findings = [f for f in report.unwaived if f.rule == "RL009"]
    assert len(findings) == 1
    assert findings[0].line == 8  # the worker.spin_down() boundary call
    assert "Worker.spin_down" in findings[0].message


def test_project_index_is_deterministic():
    summaries_a = [
        summarize(SourceFile(d, s)) for d, s in sorted(_RL010_MODULES.items())
    ]
    summaries_b = [
        summarize(SourceFile(d, s))
        for d, s in sorted(_RL010_MODULES.items(), reverse=True)
    ]
    index_a = ProjectIndex(summaries_a)
    index_b = ProjectIndex(summaries_b)
    assert index_a.resolved == index_b.resolved
    assert sorted(index_a.effects) == sorted(index_b.effects)
    for name in index_a.effects:
        assert sorted(index_a.effects[name]) == sorted(index_b.effects[name])


# --------------------------------------------------------------------------
# Summary cache: warm hits, invalidation, identical results
# --------------------------------------------------------------------------


def _write_fixture_tree(root: Path, modules: dict[str, str]) -> Path:
    for display, text in modules.items():
        target = root / display
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
    return root / "src"


def test_cache_warm_run_reproduces_cold_findings(tmp_path):
    src = _write_fixture_tree(tmp_path, _RL009_MODULES_ALL)
    linter = Linter()
    cache_path = tmp_path / "cache.json"
    cold_cache = SummaryCache(cache_path, linter.config_signature())
    cold = linter.lint_paths([src], cache=cold_cache)
    assert cold_cache.misses == 3 and cold_cache.hits == 0
    warm_cache = SummaryCache(cache_path, linter.config_signature())
    warm = linter.lint_paths([src], cache=warm_cache)
    assert warm_cache.hits == 3 and warm_cache.misses == 0
    # Byte-identical reports: summaries round-trip through JSON losslessly,
    # including the interprocedural chain.
    assert render_json(warm) == render_json(cold)
    assert any(f.rule == "RL009" and f.chain for f in warm.findings)


def test_cache_invalidates_on_content_change(tmp_path):
    src = _write_fixture_tree(tmp_path, _RL009_MODULES_ALL)
    linter = Linter()
    cache_path = tmp_path / "cache.json"
    linter.lint_paths([src], cache=SummaryCache(cache_path, linter.config_signature()))
    sink = tmp_path / "src/repro/core/helper_b.py"
    sink.write_text(
        "def wait_io():\n    return None\n", encoding="utf-8"
    )
    cache = SummaryCache(cache_path, linter.config_signature())
    report = linter.lint_paths([src], cache=cache)
    assert cache.misses == 1 and cache.hits == 2
    # The fix is visible through the warm entries: no more RL009.
    assert not any(f.rule == "RL009" for f in report.findings)


def test_cache_discarded_on_config_change(tmp_path):
    src = _write_fixture_tree(tmp_path, _RL009_MODULES_ALL)
    strict = Linter()
    cache_path = tmp_path / "cache.json"
    strict.lint_paths(
        [src], cache=SummaryCache(cache_path, strict.config_signature())
    )
    relaxed = Linter(profile="relaxed")
    assert relaxed.config_signature() != strict.config_signature()
    cache = SummaryCache(cache_path, relaxed.config_signature())
    relaxed.lint_paths([src], cache=cache)
    assert cache.hits == 0 and cache.misses == 3


_RL009_MODULES_ALL = {"src/repro/sim/engine.py": _RL009_ENGINE, **_RL009_HELPERS}


def test_warm_cache_full_tree_within_2x_single_pass(tmp_path):
    """Acceptance: warm-cache full run <= 2x the line-local-only pass."""
    src = REPO_ROOT / "src"
    local_rules = [r for r in default_rules() if not isinstance(r, SummaryRule)]
    local_linter = Linter(rules=local_rules)
    local_linter.lint_paths([src])  # prime imports and the OS file cache
    start = time.perf_counter()
    local_linter.lint_paths([src])
    single_pass = time.perf_counter() - start
    full = Linter()
    cache_path = tmp_path / "cache.json"
    full.lint_paths([src], cache=SummaryCache(cache_path, full.config_signature()))
    warm_cache = SummaryCache(cache_path, full.config_signature())
    start = time.perf_counter()
    report = full.lint_paths([src], cache=warm_cache)
    warm = time.perf_counter() - start
    assert warm_cache.misses == 0
    assert report.ok, [f.as_dict() for f in report.unwaived]
    assert warm <= 2 * single_pass, (
        f"warm full-catalog run {warm:.3f}s exceeds 2x the "
        f"line-local pass {single_pass:.3f}s"
    )


# --------------------------------------------------------------------------
# Baseline diffing and the CLI gate modes
# --------------------------------------------------------------------------


def test_diff_reports_matches_as_multiset():
    dirty = "def f(x=[]):\n    return x\n"
    base = Linter().lint_modules([SourceFile("src/repro/core/a.py", dirty)])
    # Same violation, shifted lines: still pre-existing.
    current = Linter().lint_modules(
        [SourceFile("src/repro/core/a.py", "\n\n" + dirty)]
    )
    new, preexisting = diff_reports(current, base)
    assert not new and len(preexisting) == 1
    # A second copy of a known violation is new.
    doubled = Linter().lint_modules(
        [SourceFile("src/repro/core/a.py", dirty + "\ndef g(y=[]):\n    return y\n")]
    )
    new, preexisting = diff_reports(doubled, base)
    assert len(preexisting) == 1 and len(new) == 1


def test_cli_baseline_gates_only_new_findings(tmp_path, capsys):
    target = tmp_path / "src" / "repro" / "core" / "mod.py"
    target.parent.mkdir(parents=True)
    target.write_text("def f(x=[]):\n    return x\n")
    baseline_file = tmp_path / "baseline.json"
    assert (
        lint_main(
            [
                str(target), "--no-cache", "--format", "json",
                "--output", str(baseline_file),
            ]
        )
        == 1
    )
    # Unchanged tree vs baseline: the pre-existing finding does not gate.
    assert (
        lint_main(
            [str(target), "--no-cache", "--baseline", str(baseline_file)]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "0 new, 1 pre-existing" in out
    # Introduce a second violation: only it fails the run.
    target.write_text("def f(x=[]):\n    return x\n\ndef g(y=[]):\n    return y\n")
    assert (
        lint_main(
            [str(target), "--no-cache", "--baseline", str(baseline_file)]
        )
        == 1
    )
    out = capsys.readouterr().out
    assert "1 new, 1 pre-existing" in out
    assert "NEW" in out


def test_cli_waiver_budget(tmp_path, capsys):
    target = tmp_path / "src" / "repro" / "core" / "mod.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        "def f(x=[]):  # lint: allow[RL005] fixture-approved\n    return x\n"
    )
    assert lint_main([str(target), "--no-cache", "--waiver-budget", "1"]) == 0
    assert lint_main([str(target), "--no-cache", "--waiver-budget", "0"]) == 1
    out = capsys.readouterr().out
    assert "waiver budget exceeded" in out
    assert "RL005: 1" in out


def test_cli_waiver_budget_counts_in_json_summary(tmp_path):
    target = tmp_path / "src" / "repro" / "core" / "mod.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        "def f(x=[]):  # lint: allow[RL005] fixture-approved\n    return x\n"
    )
    out_file = tmp_path / "report.json"
    lint_main(
        [str(target), "--no-cache", "--format", "json", "--output", str(out_file)]
    )
    payload = json.loads(out_file.read_text())
    assert payload["summary"]["waived_by_rule"] == {"RL005": 1}
    report = parse_json(out_file.read_text())
    assert report.waived_by_rule() == {"RL005": 1}


def _git(tmp_path: Path, *argv: str) -> None:
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *argv],
        cwd=tmp_path,
        check=True,
        capture_output=True,
    )


def test_cli_changed_only(tmp_path, monkeypatch, capsys):
    committed = tmp_path / "src" / "repro" / "core" / "old.py"
    committed.parent.mkdir(parents=True)
    committed.write_text("def f(x=[]):\n    return x\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    monkeypatch.chdir(tmp_path)
    # Nothing changed: the committed violation is out of scope.
    assert lint_main(["src", "--no-cache", "--changed-only"]) == 0
    assert "no files changed" in capsys.readouterr().out
    # A new untracked file is in scope and fails.
    fresh = committed.with_name("fresh.py")
    fresh.write_text("def g(y=[]):\n    return y\n")
    assert lint_main(["src", "--no-cache", "--changed-only"]) == 1
    out = capsys.readouterr().out
    assert "fresh.py" in out and "old.py" not in out
    # A modified tracked file is in scope from below the repository root
    # too: git diff names it relative to the top level, not to the cwd.
    fresh.unlink()
    committed.write_text("def f(x=[]):\n    return x\n\ndef h(z={}):\n    return z\n")
    monkeypatch.chdir(tmp_path / "src")
    assert lint_main([".", "--no-cache", "--changed-only"]) == 1
    out = capsys.readouterr().out
    assert "old.py" in out and "no files changed" not in out


def test_cli_cache_round_trip_on_disk(tmp_path, capsys):
    target = tmp_path / "src" / "repro" / "core" / "mod.py"
    target.parent.mkdir(parents=True)
    target.write_text("def f(x=[]):\n    return x\n")
    cache_file = tmp_path / "lint-cache.json"
    argv = [str(target), "--cache-file", str(cache_file)]
    assert lint_main(argv) == 1
    assert cache_file.exists()
    first = capsys.readouterr().out
    assert lint_main(argv) == 1
    second = capsys.readouterr().out
    assert first == second


# --------------------------------------------------------------------------
# Determinism of file intake and finding order (stable --baseline diffs)
# --------------------------------------------------------------------------


def test_collect_files_order_is_input_invariant(tmp_path):
    for name in ("b.py", "a.py", "sub/c.py"):
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("x = 1\n")
    linter = Linter()
    whole = linter.collect_files([tmp_path])
    pieces = linter.collect_files(
        [tmp_path / "sub", tmp_path / "b.py", tmp_path / "a.py"]
    )
    assert [str(p) for p in whole] == sorted(str(p) for p in whole)
    assert whole == pieces


def test_findings_sort_path_line_rule():
    report = lint_fixture(_RL009_MODULES_ALL)
    keys = [(f.path, f.line, f.rule, f.col) for f in report.findings]
    assert keys == sorted(keys)
