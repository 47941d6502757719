"""Interprocedural reprolint layer: call graph, effects, RL009-RL012,
summary cache, SARIF, and the diff-aware CLI modes.

The transitive-rule fixtures are deliberately three modules deep: the
protected caller, an intermediate helper in another package, and the
module holding the actual sink — so every firing below proves the effect
crossed at least two call-graph hops and two module boundaries, and the
witness chain names every hop.
"""

from __future__ import annotations

import ast
import json
import subprocess
from pathlib import Path

import pytest

from repro.analysis.lint import (
    Linter,
    SourceFile,
    SummaryCache,
    default_rules,
    render_sarif,
)
from repro.analysis.lint.callgraph import ProjectIndex
from repro.analysis.lint.cli import main as lint_main
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


def test_cache_written_by_another_lint_version_is_discarded(tmp_path, monkeypatch):
    """Records from an older engine (e.g. ones carrying ``severity``) are
    never reused: the engine version is part of the cache signature."""
    from repro.analysis.lint import engine

    src = _write_fixture_tree(tmp_path, _RL009_MODULES_ALL)
    cache_path = tmp_path / "cache.json"
    current = Linter().config_signature()
    with monkeypatch.context() as patch:
        patch.setattr(engine, "LINT_VERSION", engine.LINT_VERSION + "-old")
        older = Linter()
        older.lint_paths(
            [src], cache=SummaryCache(cache_path, older.config_signature())
        )
        assert older.config_signature() != current
    cache = SummaryCache(cache_path, Linter().config_signature())
    Linter().lint_paths([src], cache=cache)
    assert cache.hits == 0 and cache.misses == 3


_RL009_MODULES_ALL = {"src/repro/sim/engine.py": _RL009_ENGINE, **_RL009_HELPERS}


def test_warm_cache_full_tree_parses_nothing_and_matches_cold(tmp_path, monkeypatch):
    """A warm run over the whole tree calls ``ast.parse`` zero times, misses
    the cache zero times, and reproduces the cold report finding for
    finding."""
    tree = [REPO_ROOT / name for name in ("src", "benchmarks", "tests", "examples")]
    linter = Linter()
    cache_path = tmp_path / "cache.json"
    cold_cache = SummaryCache(cache_path, linter.config_signature())
    cold = linter.lint_paths(tree, cache=cold_cache)
    assert cold_cache.misses == cold.files_checked

    parses = []
    real_parse = ast.parse

    def counting_parse(*args, **kwargs):
        parses.append(kwargs.get("filename"))
        return real_parse(*args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    warm_cache = SummaryCache(cache_path, linter.config_signature())
    warm = linter.lint_paths(tree, cache=warm_cache)
    assert parses == []
    assert warm_cache.misses == 0
    assert warm_cache.hits == cold.files_checked
    assert [f.as_dict() for f in warm.findings] == [
        f.as_dict() for f in cold.findings
    ]


def test_cache_prune_drops_deleted_files_and_shrinks_the_file(tmp_path):
    for name in ("alpha.py", "beta.py"):
        (tmp_path / name).write_text("def f():\n    return 1\n", encoding="utf-8")
    cache_file = tmp_path / "cache.json"
    linter = Linter()

    cache = SummaryCache(cache_file, linter.config_signature())
    linter.lint_paths([tmp_path], cache=cache)
    size_before = cache_file.stat().st_size
    entries_before = len(json.loads(cache_file.read_text())["files"])
    assert entries_before == 2

    (tmp_path / "beta.py").unlink()
    cache = SummaryCache(cache_file, linter.config_signature())
    linter.lint_paths([tmp_path], cache=cache)
    document = json.loads(cache_file.read_text())
    assert len(document["files"]) == 1
    assert all("alpha" in key for key in document["files"])
    assert cache_file.stat().st_size < size_before


def test_cache_prune_returns_count_and_marks_dirty(tmp_path):
    (tmp_path / "alpha.py").write_text("x = 1\n", encoding="utf-8")
    cache_file = tmp_path / "cache.json"
    linter = Linter()
    cache = SummaryCache(cache_file, linter.config_signature())
    linter.lint_paths([tmp_path], cache=cache)

    (tmp_path / "alpha.py").unlink()
    cache = SummaryCache(cache_file, linter.config_signature())
    assert cache.prune() == 1
    cache.save()
    assert json.loads(cache_file.read_text())["files"] == {}


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


def test_sarif_maps_rules_findings_chains_and_suppressions():
    engine = _RL009_ENGINE + (
        "\n"
        "def warm_up():\n"
        "    drain()  # lint: allow[RL009] startup drain may block briefly\n"
    )
    report = lint_fixture({"src/repro/sim/engine.py": engine, **_RL009_HELPERS})
    document = json.loads(render_sarif(report))
    assert document["version"] == "2.1.0"
    run = document["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "reprolint"
    rule_ids = [rule["id"] for rule in driver["rules"]]
    assert rule_ids == sorted(rule_ids)
    assert {"RL009", "RL012"} <= set(rule_ids)
    # Every rule gates, so every rule carries the "error" level.
    by_id = {rule["id"]: rule for rule in driver["rules"]}
    assert by_id["RL012"]["defaultConfiguration"]["level"] == "error"
    assert by_id["RL009"]["defaultConfiguration"]["level"] == "error"

    results = run["results"]
    fired = [r for r in results if r["ruleId"] == "RL009" and "suppressions" not in r]
    suppressed = [r for r in results if r.get("suppressions")]
    assert len(fired) == 1
    assert len(suppressed) == 1
    assert suppressed[0]["suppressions"][0]["kind"] == "inSource"
    assert (
        suppressed[0]["suppressions"][0]["justification"]
        == "startup drain may block briefly"
    )
    # The two-hop witness chain maps to codeFlows/threadFlows locations:
    # each function's def line, then the sink line.
    flow_locations = fired[0]["codeFlows"][0]["threadFlows"][0]["locations"]
    assert [
        (
            loc["location"]["physicalLocation"]["artifactLocation"]["uri"],
            loc["location"]["physicalLocation"]["region"]["startLine"],
        )
        for loc in flow_locations
    ] == [
        ("src/repro/sim/engine.py", 3),
        ("src/repro/core/helper_a.py", 3),
        ("src/repro/core/helper_b.py", 3),
        ("src/repro/core/helper_b.py", 4),
    ]
    uri = fired[0]["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
    assert uri == "src/repro/sim/engine.py"


def test_sarif_rule_metadata_matches_catalog():
    report = lint_fixture({"src/repro/sim/io_util.py": "x = 1\n"})
    document = json.loads(render_sarif(report))
    rules = document["runs"][0]["tool"]["driver"]["rules"]
    assert len(rules) == len(default_rules())


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


def test_cli_changed_only_indexes_the_whole_tree(tmp_path, monkeypatch, capsys):
    """Findings are limited to changed files; the project index is not."""
    helper = tmp_path / "src" / "repro" / "core" / "helper.py"
    helper.parent.mkdir(parents=True)
    helper.write_text(
        '__all__ = ["stamp"]\n\nimport time\n\n\ndef stamp():\n    return time.time()\n'
    )
    clockish = tmp_path / "src" / "repro" / "sim" / "clockish.py"
    clockish.parent.mkdir(parents=True)
    clockish.write_text(
        "from repro.core.helper import stamp\n\n\ndef now():\n    return 0.0\n"
    )
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    monkeypatch.chdir(tmp_path)
    # The changed file calls into an unchanged helper that reads the wall
    # clock: the chain runs through the unchanged module and still fires.
    clockish.write_text(
        "from repro.core.helper import stamp\n\n\ndef now():\n    return stamp()\n"
    )
    assert lint_main(["src", "--no-cache", "--changed-only"]) == 1
    out = capsys.readouterr().out
    assert "RL010" in out and "clockish.now" in out and "time.time" in out
    # Touching only the helper: its export is still used by the unchanged
    # caller, so it is not reported as dead.
    _git(tmp_path, "checkout", "--", ".")
    helper.write_text(helper.read_text() + "\n\n_EPOCH = 0.0\n")
    report_file = tmp_path / "report.json"
    assert lint_main(
        ["src", "--no-cache", "--changed-only", "--format", "json",
         "--output", str(report_file)]
    ) == 0
    assert json.loads(report_file.read_text())["findings"] == []


def test_cli_accepts_a_schema_2_baseline_with_advisory_rows(tmp_path, capsys):
    """A baseline written by the previous linter still gates correctly.

    Schema /2 carried a per-finding ``severity``, and RL012 rows were
    ``advisory``.  Such a row reads as an ordinary finding, so a dead
    export already present at the base is pre-existing, not new.
    """
    target = tmp_path / "src" / "repro" / "core" / "libx.py"
    target.parent.mkdir(parents=True)
    target.write_text('__all__ = ["orphan"]\n\n\ndef orphan():\n    return 1\n')
    message = (
        "dead export: 'orphan' is in __all__ but nothing else in the "
        "scanned tree references it"
    )
    baseline = {
        "schema": "reprolint-report/2",
        "profiles": {"strict": 1},
        "summary": {"files": 1, "findings": 1, "waived": 0, "unwaived": 0,
                    "advisory": 1, "ok": True, "by_rule": {"RL012": 1},
                    "waived_by_rule": {}},
        "findings": [{"rule": "RL012", "path": str(target), "line": 4,
                      "col": 0, "message": message, "waived": False,
                      "waiver_reason": "", "severity": "advisory"}],
    }
    baseline_file = tmp_path / "base.json"
    baseline_file.write_text(json.dumps(baseline))
    parsed = parse_json(baseline_file.read_text())
    assert [(f.rule, f.message) for f in parsed.unwaived] == [("RL012", message)]
    assert lint_main([str(target), "--no-cache"]) == 1
    capsys.readouterr()
    assert lint_main(
        [str(target), "--no-cache", "--baseline", str(baseline_file)]
    ) == 0
    assert "0 new, 1 pre-existing" in capsys.readouterr().out


def _commit_helper_and_consumer(tmp_path: Path) -> tuple[Path, Path]:
    """A git repo holding one export and the module that uses it."""
    helper = tmp_path / "src" / "repro" / "core" / "helper.py"
    helper.parent.mkdir(parents=True)
    helper.write_text(_RL012_LIBX)
    consumer = helper.with_name("consumer.py")
    consumer.write_text("from repro.core.helper import helper\n\nVALUE = helper()\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    return helper, consumer


def test_cli_changed_only_counts_only_the_changed_files(tmp_path, monkeypatch):
    helper, _consumer = _commit_helper_and_consumer(tmp_path)
    monkeypatch.chdir(tmp_path)
    helper.write_text(_RL012_LIBX + "\n\n_SPARE = 0\n")
    report_file = tmp_path / "report.json"
    assert lint_main(
        ["src", "--no-cache", "--changed-only", "--format", "json",
         "--output", str(report_file)]
    ) == 0
    payload = json.loads(report_file.read_text())
    assert payload["summary"]["files"] == 1
    assert payload["findings"] == []


def test_cli_changed_only_reports_a_dead_export_in_a_changed_file(
    tmp_path, monkeypatch, capsys
):
    helper, _consumer = _commit_helper_and_consumer(tmp_path)
    monkeypatch.chdir(tmp_path)
    helper.write_text(
        '__all__ = ["helper", "orphan"]\n\n\ndef helper():\n    return 1\n'
        "\n\ndef orphan():\n    return 2\n"
    )
    assert lint_main(["src", "--no-cache", "--changed-only"]) == 1
    out = capsys.readouterr().out
    assert "RL012" in out and "'orphan'" in out
    assert "'helper'" not in out


def test_cli_rejects_the_removed_show_advisory_flag(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text("X = 1\n")
    with pytest.raises(SystemExit) as excinfo:
        lint_main([str(target), "--show-advisory"])
    assert excinfo.value.code == 2
    assert "--show-advisory" in capsys.readouterr().err


def test_json_report_has_no_severity_or_advisory_count():
    report = lint_fixture({"src/repro/core/libx.py": _RL012_LIBX})
    payload = json.loads(render_json(report))
    assert payload["schema"] == "reprolint-report/3"
    assert "advisory" not in payload["summary"]
    assert payload["summary"]["ok"] is False
    assert [f["rule"] for f in payload["findings"]] == ["RL012"]
    assert all("severity" not in f for f in payload["findings"])


def test_parse_json_reads_a_schema_1_report():
    document = {
        "schema": "reprolint-report/1",
        "summary": {"files": 2, "findings": 1, "waived": 0, "unwaived": 1,
                    "ok": False, "by_rule": {"RL005": 1}},
        "findings": [{"rule": "RL005", "path": "src/repro/core/mod.py",
                      "line": 1, "col": 6, "message": "mutable default",
                      "waived": False, "waiver_reason": ""}],
    }
    parsed = parse_json(json.dumps(document))
    assert parsed.files_checked == 2
    assert [(f.rule, f.line) for f in parsed.unwaived] == [("RL005", 1)]
    assert not parsed.ok


def test_parse_json_rejects_an_unknown_schema():
    document = {"schema": "reprolint-report/9", "summary": {"files": 0}, "findings": []}
    with pytest.raises(ValueError, match="unsupported report schema"):
        parse_json(json.dumps(document))


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
