"""Interprocedural reprolint layer: call graph, effects, RL009-RL012,
the CLI and the JSON report.

The transitive-rule fixtures are deliberately three modules deep: the
protected caller, an intermediate helper in another package, and the
module holding the actual sink — so every firing below proves the effect
crossed at least two call-graph hops and two module boundaries, and the
witness chain names every hop.
"""

from __future__ import annotations

import ast
import json

import pytest

from repro.analysis.lint import Linter, SourceFile, render_json
from repro.analysis.lint.callgraph import ProjectIndex
from repro.analysis.lint.cli import main as lint_main
from repro.analysis.lint.symbols import summarize


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
    # RL010's third sink: hash-seed-ordered iteration in a helper is as
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
# The sink table is the spec: every sink form is one finding at its own
# line inside the rule's scope, and one at the boundary call when an
# out-of-scope helper reaches it
# --------------------------------------------------------------------------

_FORWARDER = "src/repro/ndn/forwarder.py"
_METRICS = "src/repro/sim/metrics.py"
_ENGINE = "src/repro/sim/engine.py"

# (form, rule, in-scope path, import line, body, the import is a sink too)
SINK_FORMS = [
    ("bare-decode", "RL011", _FORWARDER, "", "return b.decode()", False),
    ("Interest", "RL011", _FORWARDER,
     "from repro.ndn.packet import Interest", "return Interest(b)", False),
    ("Data.decode", "RL011", _FORWARDER,
     "from repro.ndn.packet import Data", "return Data.decode(b)", False),
    ("time.monotonic", "RL010", _METRICS,
     "import time", "return time.monotonic()", False),
    ("from-time-import-monotonic", "RL010", _METRICS,
     "from time import monotonic", "return monotonic()", False),
    ("datetime.now", "RL010", _METRICS,
     "import datetime", "return datetime.datetime.now()", False),
    ("datetime-as-dt.now", "RL010", _METRICS,
     "import datetime as dt", "return dt.datetime.now()", False),
    ("from-datetime-import-datetime", "RL010", _METRICS,
     "from datetime import datetime", "return datetime.now()", False),
    ("os.urandom", "RL010", _METRICS,
     "import os", "return os.urandom(4)", False),
    ("from-os-import-urandom", "RL010", _METRICS,
     "from os import urandom", "return urandom(4)", False),
    ("uuid.uuid4", "RL010", _METRICS,
     "import uuid", "return uuid.uuid4()", False),
    ("from-uuid-import-uuid4", "RL010", _METRICS,
     "from uuid import uuid4", "return uuid4()", False),
    ("secrets.token_hex", "RL010", _METRICS,
     "import secrets", "return secrets.token_hex()", True),
    ("import-random", "RL010", _METRICS,
     "import random", "return random.random()", True),
    ("set-iteration", "RL010", _METRICS,
     "", "for x in set(s):\n        return x", False),
    ("time.sleep", "RL009", _ENGINE, "import time", "time.sleep(0)", False),
    ("from-time-import-sleep", "RL009", _ENGINE,
     "from time import sleep", "sleep(0)", False),
    ("from-time-import-sleep-as-nap", "RL009", _ENGINE,
     "from time import sleep as nap", "nap(0)", False),
    ("time-as-t.sleep", "RL009", _ENGINE,
     "import time as t", "t.sleep(0)", False),
    ("subprocess.run", "RL009", _ENGINE,
     "import subprocess", "subprocess.run([])", True),
    ("import-socket", "RL009", _ENGINE,
     "import socket", "return socket.create_connection(b)", True),
]

_SINK_LINE = 3
_SINK_HELPER = "src/repro/core/sinkhelper.py"
_SINK_CALLER = (
    "from repro.core.sinkhelper import sink\n"
    "\n"
    "def caller(b, s):\n"
    "    return sink(b, s)\n"
)


def _sink_module(import_line: str, body: str, waiver: str = "") -> str:
    """The sink form as a module whose line 3 is the sink line."""
    first, newline, rest = body.partition("\n")
    return f"{import_line}\ndef sink(b, s):\n    {first}{waiver}{newline}{rest}\n"


_SINK_PARAMS = pytest.mark.parametrize(
    "form,rule,scope_path,import_line,body,import_is_sink",
    SINK_FORMS,
    ids=[row[0] for row in SINK_FORMS],
)


@_SINK_PARAMS
def test_sink_form_fires_in_scope_and_at_the_boundary(
    form, rule, scope_path, import_line, body, import_is_sink
):
    direct = lint_fixture({scope_path: _sink_module(import_line, body)})
    found = [f for f in direct.unwaived if f.rule == rule]
    expected_lines = ([1] if import_is_sink else []) + [_SINK_LINE]
    assert [f.line for f in found] == expected_lines, (
        form, [f.as_dict() for f in direct.findings],
    )
    assert all(f.chain == [] for f in found)

    transitive = lint_fixture({
        scope_path: _SINK_CALLER,
        _SINK_HELPER: _sink_module(import_line, body),
    })
    found = [f for f in transitive.unwaived if f.rule == rule]
    assert len(found) == 1, (form, [f.as_dict() for f in transitive.findings])
    assert (found[0].path, found[0].line) == (scope_path, 4)
    assert (found[0].chain[-1]["path"], found[0].chain[-1]["line"]) == (
        _SINK_HELPER, _SINK_LINE,
    )


@_SINK_PARAMS
def test_waived_sink_form_is_one_waived_finding_that_never_propagates(
    form, rule, scope_path, import_line, body, import_is_sink
):
    sink = _sink_module(import_line, body, f"  # lint: allow[{rule}] fixture")

    direct = lint_fixture({scope_path: sink})
    at_sink = [f for f in direct.findings if f.rule == rule and f.line == _SINK_LINE]
    assert [f.waived for f in at_sink] == [True], (
        form, [f.as_dict() for f in direct.findings],
    )

    through_helper = lint_fixture({scope_path: _SINK_CALLER, _SINK_HELPER: sink})
    found = [(f.path, f.line, f.waived) for f in through_helper.findings
             if f.rule == rule]
    assert found == [(_SINK_HELPER, _SINK_LINE, True)], (
        form, [f.as_dict() for f in through_helper.findings],
    )
    assert not any(
        f.rule == "RL000" for f in direct.findings + through_helper.findings
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
# RL012: dead exports gate like every other rule
# --------------------------------------------------------------------------


def test_rl012_reports_dead_export_as_advisory():
    """A dead export is an ordinary, gating finding; a used one is not."""
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
    assert not report.ok
    findings = report.unwaived
    assert [f.rule for f in findings] == ["RL012"]
    assert "unused_helper" in findings[0].message
    assert findings[0].line == 6
    assert not any("'used_helper'" in f.message for f in findings)


_RL012_LIBX = '__all__ = ["helper"]\n\n\ndef helper():\n    return 1\n'


def test_rl012_counts_module_attribute_access_as_a_use():
    report = lint_fixture({
        "src/repro/core/libx.py": _RL012_LIBX,
        "src/repro/core/consumer.py": (
            "from repro.core import libx\n"
            "\n"
            "def _call():\n"
            "    return libx.helper()\n"
        ),
    })
    assert report.ok, [f.as_dict() for f in report.unwaived]


def test_rl012_skips_reexports_and_constants():
    """Only names the module itself defines can be dead there."""
    report = lint_fixture({
        "src/repro/core/base.py": _RL012_LIBX,
        "src/repro/core/libx.py": (
            "from repro.core.base import helper\n"
            "\n"
            '__all__ = ["helper", "LIMIT"]\n'
            "\n"
            "LIMIT = 3\n"
        ),
    })
    assert report.ok, [f.as_dict() for f in report.unwaived]


def test_rl012_reports_a_dead_class_at_its_def_line():
    report = lint_fixture({
        "src/repro/core/libx.py": (
            '__all__ = ["Used", "Orphan"]\n'
            "\n"
            "\n"
            "class Used:\n"
            "    pass\n"
            "\n"
            "\n"
            "class Orphan:\n"
            "    pass\n"
        ),
        "src/repro/core/consumer.py": (
            "from repro.core.libx import Used\n\nVALUE = Used()\n"
        ),
    })
    assert [(f.rule, f.line) for f in report.unwaived] == [("RL012", 8)]
    assert "'Orphan'" in report.unwaived[0].message


def test_rl012_sees_test_references_only_when_tests_are_scanned():
    """A test import keeps an export alive in a tree that includes tests;
    linting ``src/`` alone (the tier-1 gate) still reports it."""
    test_module = (
        "from repro.core.libx import helper\n"
        "\n"
        "def test_helper():\n"
        "    assert helper() == 1\n"
    )
    with_tests = lint_fixture({
        "src/repro/core/libx.py": _RL012_LIBX,
        "tests/core/test_libx.py": test_module,
    })
    assert with_tests.ok, [f.as_dict() for f in with_tests.unwaived]
    src_only = lint_fixture({"src/repro/core/libx.py": _RL012_LIBX})
    assert [f.rule for f in src_only.unwaived] == ["RL012"]


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
# The CLI and the JSON report
# --------------------------------------------------------------------------


def test_cli_waiver_budget_counts_in_json_summary(tmp_path):
    target = tmp_path / "src" / "repro" / "core" / "mod.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        "def f(x=[]):  # lint: allow[RL005] fixture-approved\n    return x\n"
    )
    out_file = tmp_path / "report.json"
    lint_main([str(target), "--format", "json", "--output", str(out_file)])
    payload = json.loads(out_file.read_text())
    assert payload["summary"]["waived_by_rule"] == {"RL005": 1}


def _write_tree(root, modules: dict[str, str]):
    """Write an in-memory fixture project to disk; returns its ``src/``."""
    for display, text in modules.items():
        target = root / display
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
    return root / "src"


def test_lint_paths_parses_each_file_once(tmp_path, monkeypatch):
    """The project phase runs over the summaries and never re-opens an AST."""
    src = _write_tree(
        tmp_path, {"src/repro/sim/engine.py": _RL009_ENGINE, **_RL009_HELPERS}
    )
    parses = []
    real_parse = ast.parse

    def counting_parse(*args, **kwargs):
        parses.append(kwargs.get("filename"))
        return real_parse(*args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    report = Linter().lint_paths([src])
    assert report.files_checked == 3
    assert sorted(parses) == sorted(
        str(path) for path in Linter().collect_files([src])
    )
    assert any(f.rule == "RL009" and f.chain for f in report.findings)


def test_cli_reports_a_chain_through_another_module(tmp_path, capsys):
    """The CLI indexes the whole tree: an effect found in one module reaches
    its caller in another, and an export that caller uses is not dead."""
    src = _write_tree(tmp_path, {
        "src/repro/core/helper.py": (
            '__all__ = ["stamp"]\n\nimport time\n\n\n'
            "def stamp():\n    return time.time()\n"
        ),
        "src/repro/sim/clockish.py": (
            "from repro.core.helper import stamp\n\n\n"
            "def now():\n    return stamp()\n"
        ),
    })
    assert lint_main([str(src)]) == 1
    out = capsys.readouterr().out
    assert "RL010" in out and "clockish.now" in out and "time.time" in out
    assert "RL012" not in out


def test_cli_reports_a_dead_export_but_not_a_used_one(tmp_path, capsys):
    src = _write_tree(tmp_path, {
        "src/repro/core/helper.py": (
            '__all__ = ["helper", "orphan"]\n\n\ndef helper():\n    return 1\n'
            "\n\ndef orphan():\n    return 2\n"
        ),
        "src/repro/core/consumer.py": (
            "from repro.core.helper import helper\n\nVALUE = helper()\n"
        ),
    })
    assert lint_main([str(src)]) == 1
    out = capsys.readouterr().out
    assert "RL012" in out and "'orphan'" in out
    assert "'helper'" not in out


def test_cli_report_is_identical_across_runs(tmp_path, capsys):
    """Two cold runs over the same tree print the same report."""
    src = _write_tree(
        tmp_path, {"src/repro/sim/engine.py": _RL009_ENGINE, **_RL009_HELPERS}
    )
    for fmt in ("text", "json"):
        assert lint_main([str(src), "--format", fmt]) == 1
        first = capsys.readouterr().out
        assert lint_main([str(src), "--format", fmt]) == 1
        assert capsys.readouterr().out == first


@pytest.mark.parametrize(
    "flag",
    [
        ["--show-advisory"],
        ["--no-cache"],
        ["--cache-file", "x"],
        ["--changed-only"],
        ["--diff-base", "HEAD"],
        ["--baseline", "x"],
        ["--waiver-budget", "3"],
        ["--format", "sarif"],
    ],
    ids=lambda flag: flag[0],
)
def test_cli_rejects_a_removed_flag(flag, tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text("X = 1\n")
    with pytest.raises(SystemExit) as excinfo:
        lint_main([str(target), *flag])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert all(part in err for part in flag)


def test_json_report_has_no_severity_or_advisory_count():
    report = lint_fixture({"src/repro/core/libx.py": _RL012_LIBX})
    payload = json.loads(render_json(report))
    assert payload["schema"] == "reprolint-report/3"
    assert "advisory" not in payload["summary"]
    assert payload["summary"]["ok"] is False
    assert [f["rule"] for f in payload["findings"]] == ["RL012"]
    assert all("severity" not in f for f in payload["findings"])


# --------------------------------------------------------------------------
# Determinism of file intake and finding order (reproducible reports)
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
    report = lint_fixture({"src/repro/sim/engine.py": _RL009_ENGINE, **_RL009_HELPERS})
    keys = [(f.path, f.line, f.rule, f.col) for f in report.findings]
    assert keys == sorted(keys)
