"""Self-tests for reprolint (``repro.analysis.lint``).

Three layers:

* one fire-and-waiver pair per rule — every rule must both detect its
  violation fixture and be silenced by exactly one waiver comment,
* engine mechanics — waiver parsing, profile selection, reporters, CLI,
* the tier-1 gate — ``src/`` must lint clean under the default profiles,
  and the four trees together within :data:`WAIVER_BUDGET` waivers.
"""

from __future__ import annotations

import ast
import json
from dataclasses import fields
from pathlib import Path

import pytest

from repro.analysis.lint import (
    Finding,
    Linter,
    SourceFile,
    profile_for_path,
    render_json,
    render_text,
)
from repro.analysis.lint.cli import main as lint_main
from repro.analysis.lint.engine import META_RULE_ID, PROFILES
from repro.analysis.lint.rules import default_rules

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Most waived findings the four trees may carry together.  A new waiver
#: past it is a reviewed change to this number, not a comment alone.
WAIVER_BUDGET = 3


def lint_snippet(source: str, display: str = "src/repro/ndn/forwarder.py", **kwargs):
    """Lint one in-memory snippet under a display path (drives rule scoping)."""
    return Linter(**kwargs).lint_source(source, display=display)


def rule_ids(report) -> list[str]:
    return sorted({f.rule for f in report.unwaived})


# --------------------------------------------------------------------------
# Per-rule fixtures: each rule fires on its violation and a single waiver
# comment (with a reason) suppresses exactly that line.
# --------------------------------------------------------------------------

# (rule id, display path that puts the snippet in the rule's scope, source)
RULE_FIXTURES = [
    (
        "RL004",
        "src/repro/core/anything.py",
        "def risky():\n"
        "    try:\n"
        "        return 1\n"
        "    except Exception:\n"
        "        return None\n",
    ),
    (
        "RL005",
        "src/repro/core/anything.py",
        "def collect(bucket=[]):\n"
        "    bucket.append(1)\n"
        "    return bucket\n",
    ),
    (
        "RL006",
        "src/repro/ndn/pit.py",
        "class SomeEntry:\n"
        "    def __init__(self, name):\n"
        "        self.name = name\n",
    ),
    (
        "RL008",
        "src/repro/core/anything.py",
        '__all__ = ["exists", "phantom"]\n'
        "def exists():\n"
        "    return 1\n",
    ),
    (
        "RL009",
        "src/repro/ndn/forwarder.py",
        "import time\n"
        "def wait():\n"
        "    time.sleep(1.0)\n",
    ),
    (
        "RL010",
        "src/repro/sim/engine.py",
        "import time\n"
        "def now():\n"
        "    return time.time()\n",
    ),
    (
        "RL011",
        "src/repro/ndn/forwarder.py",
        "def on_interest(wire):\n"
        "    packet = wire.decode()\n"
        "    return packet\n",
    ),
    (
        "RL012",
        "src/repro/core/anything.py",
        '__all__ = ["orphan"]\n'
        "def orphan():\n"
        "    return 1\n",
    ),
]


@pytest.mark.parametrize(
    "rule_id,display,source", RULE_FIXTURES, ids=[f[0] for f in RULE_FIXTURES]
)
def test_rule_fires_on_violation(rule_id, display, source):
    report = lint_snippet(source, display=display)
    assert rule_id in rule_ids(report), (
        f"{rule_id} did not fire; got {rule_ids(report)}"
    )


@pytest.mark.parametrize(
    "rule_id,display,source", RULE_FIXTURES, ids=[f[0] for f in RULE_FIXTURES]
)
def test_waiver_suppresses_rule(rule_id, display, source):
    findings = lint_snippet(source, display=display).unwaived
    target = next(f for f in findings if f.rule == rule_id)
    lines = source.splitlines()
    lines[target.line - 1] += f"  # lint: allow[{rule_id}] fixture-approved"
    waived_report = lint_snippet("\n".join(lines) + "\n", display=display)
    assert rule_id not in rule_ids(waived_report)
    waived = [f for f in waived_report.waived if f.rule == rule_id]
    assert waived and waived[0].waiver_reason == "fixture-approved"


@pytest.mark.parametrize(
    "display,name",
    [
        ("src/repro/ndn/fib.py", "_NextHop"),
        ("src/repro/ndn/client.py", "_PendingInterest"),
        ("src/repro/ndn/pit.py", "_InRecord"),
    ],
)
def test_rl006_matches_private_entry_class_names(display, name):
    """A leading underscore does not take an entry class out of scope."""
    report = lint_snippet(f"class {name}:\n    pass\n", display=display)
    assert rule_ids(report) == ["RL006"]
    slotted = lint_snippet(
        f"class {name}:\n    __slots__ = ()\n", display=display
    )
    assert rule_ids(slotted) == []


def test_rl007_fires_and_waives():
    """RL007 is a project rule: needs the registry module in the same scan."""
    registry = SourceFile(
        "src/repro/ndn/tlv.py",
        "class TlvTypes:\n    INTEREST = 0x05\n    DATA = 0x06\n",
    )
    user = SourceFile(
        "src/repro/ndn/consumerx.py",
        "from repro.ndn.tlv import TlvTypes\n"
        "def kind():\n"
        "    return TlvTypes.PHANTOM\n",
    )
    report = Linter().lint_modules([registry, user])
    assert "RL007" in rule_ids(report)

    waived_user = SourceFile(
        user.display,
        user.source.replace(
            "return TlvTypes.PHANTOM",
            "return TlvTypes.PHANTOM  # lint: allow[RL007] fixture-approved",
        ),
    )
    report = Linter().lint_modules([registry, waived_user])
    assert "RL007" not in rule_ids(report)


def test_rl007_duplicate_type_numbers():
    registry = SourceFile(
        "src/repro/ndn/tlv.py",
        "class TlvTypes:\n    INTEREST = 0x05\n    ALIAS = 0x05\n",
    )
    report = Linter().lint_modules([registry])
    findings = [f for f in report.unwaived if f.rule == "RL007"]
    assert findings and "duplicate" in findings[0].message


# --------------------------------------------------------------------------
# Waiver mechanics
# --------------------------------------------------------------------------


def test_waiver_covers_exactly_one_line():
    source = (
        "def a(x=[]):  # lint: allow[RL005] first occurrence is sanctioned\n"
        "    return x\n"
        "def b(y=[]):\n"
        "    return y\n"
    )
    report = lint_snippet(source, display="src/repro/core/mod.py")
    assert len(report.waived) == 1 and report.waived[0].line == 1
    assert len(report.unwaived) == 1 and report.unwaived[0].line == 3


def test_standalone_waiver_covers_next_line():
    source = (
        "# lint: allow[RL005] shared scratch buffer, documented\n"
        "def a(x=[]):\n"
        "    return x\n"
    )
    report = lint_snippet(source, display="src/repro/core/mod.py")
    assert report.ok and len(report.waived) == 1


def test_waiver_without_reason_is_rejected():
    source = "def a(x=[]):  # lint: allow[RL005]\n    return x\n"
    report = lint_snippet(source, display="src/repro/core/mod.py")
    rules_seen = {f.rule for f in report.unwaived}
    assert "RL005" in rules_seen  # the finding survives
    assert META_RULE_ID in rules_seen  # and the bad waiver is itself flagged


def test_unused_waiver_is_flagged():
    source = "x = 1  # lint: allow[RL005] nothing here ever fires\n"
    report = lint_snippet(source, display="src/repro/core/mod.py")
    assert [f.rule for f in report.unwaived] == [META_RULE_ID]


def test_wildcard_waiver():
    source = "def a(x=[]):  # lint: allow[*] prototype module, grandfathered\n    return x\n"
    report = lint_snippet(source, display="src/repro/core/mod.py")
    assert report.ok and report.waived


@pytest.mark.parametrize("retired", ["RL001", "RL002", "RL003", "RL013", "RL014"])
def test_waiver_naming_a_retired_rule_is_flagged(retired):
    # RL001-RL003 live on as RL009-RL011 and RL013/RL014 are gone: a
    # leftover waiver for one of them suppresses nothing and is reported.
    source = (
        "import time\n"
        f"def now():  # lint: allow[{retired}] written for the old catalog\n"
        "    return time.time()\n"
    )
    report = lint_snippet(source, display="src/repro/sim/mod.py")
    meta = [f for f in report.unwaived if f.rule == META_RULE_ID]
    assert meta and "unknown rule" in meta[0].message and retired in meta[0].message
    assert "RL010" in rule_ids(report)


def test_waiver_inside_string_is_ignored():
    source = 'text = "# lint: allow[RL005] not a comment"\ndef a(x=[]):\n    return x\n'
    report = lint_snippet(source, display="src/repro/core/mod.py")
    assert "RL005" in rule_ids(report)


def test_syntax_error_is_a_finding():
    report = lint_snippet("def broken(:\n", display="src/repro/core/mod.py")
    assert [f.rule for f in report.unwaived] == [META_RULE_ID]


def test_waiver_between_decorator_and_def():
    # Comments between a decorator and its def are legal Python; a
    # standalone waiver there covers the def line, where RL005 anchors
    # the mutable-default finding.
    source = (
        "def wrap(f):\n"
        "    return f\n"
        "@wrap\n"
        "# lint: allow[RL005] decorated fixture, shared default documented\n"
        "def a(x=[]):\n"
        "    return x\n"
    )
    report = lint_snippet(source, display="src/repro/core/mod.py")
    assert report.ok, [f.as_dict() for f in report.unwaived]
    assert len(report.waived) == 1 and report.waived[0].line == 5


def test_waiver_above_decorator_does_not_reach_the_def():
    # A standalone waiver covers exactly the next line: placed above the
    # decorator it targets the decorator line, not the def, so the
    # finding survives and the waiver is reported stale.
    source = (
        "def wrap(f):\n"
        "    return f\n"
        "# lint: allow[RL005] misplaced: targets the decorator line\n"
        "@wrap\n"
        "def a(x=[]):\n"
        "    return x\n"
    )
    report = lint_snippet(source, display="src/repro/core/mod.py")
    rules_seen = {f.rule for f in report.unwaived}
    assert "RL005" in rules_seen
    assert META_RULE_ID in rules_seen  # the unused waiver is flagged


def test_waiver_on_multiline_statement_first_line():
    # A statement spanning several lines anchors its finding at the first
    # line; the waiver belongs there, not on the closing paren.
    source = (
        "import time\n"
        "def span():\n"
        "    return max(  # lint: allow[RL010] diagnostics-only timestamp\n"
        "        time.time(),\n"
        "        0.0,\n"
        "    )\n"
    )
    report = lint_snippet(source, display="src/repro/sim/mod.py")
    rl010 = [f for f in report.findings if f.rule == "RL010"]
    assert rl010, [f.as_dict() for f in report.findings]
    # The attribute node sits on the continuation line: the waiver must
    # be inline there to bind.
    inline = source.replace(
        "max(  # lint: allow[RL010] diagnostics-only timestamp", "max("
    ).replace(
        "time.time(),",
        "time.time(),  # lint: allow[RL010] diagnostics-only timestamp",
    )
    report = lint_snippet(inline, display="src/repro/sim/mod.py")
    rl010 = [f for f in report.findings if f.rule == "RL010"]
    assert rl010 and all(f.waived for f in rl010), [
        f.as_dict() for f in report.findings
    ]


def test_waiver_inside_nested_function():
    source = (
        "import time\n"
        "def outer():\n"
        "    def inner():\n"
        "        return time.time()  # lint: allow[RL010] nested diag probe\n"
        "    return inner\n"
    )
    report = lint_snippet(source, display="src/repro/sim/mod.py")
    assert report.ok, [f.as_dict() for f in report.unwaived]
    waived = [f for f in report.waived if f.rule == "RL010"]
    assert waived and waived[0].line == 4


# --------------------------------------------------------------------------
# Profiles
# --------------------------------------------------------------------------


def test_profile_map_resolution():
    assert profile_for_path("src/repro/ndn/forwarder.py") == "strict"
    assert profile_for_path("src/repro/sim/engine.py") == "strict"
    assert profile_for_path("src/repro/cluster/kubelet.py") == "relaxed"
    assert profile_for_path("benchmarks/e2e/run.py") == "relaxed"
    assert profile_for_path("tests/ndn/test_forwarder.py") == "relaxed"


def test_relaxed_profile_disables_invariant_rules():
    source = "import time\ndef now():\n    return time.time()\n"
    # Same snippet: strict (sim path) fires RL010, relaxed (cluster) does not.
    assert "RL010" in rule_ids(lint_snippet(source, display="src/repro/sim/x.py"))
    report = lint_snippet(source, display="src/repro/cluster/x.py")
    assert "RL010" not in rule_ids(report)


def test_relaxed_profile_keeps_hygiene_rules():
    source = "def a(x=[]):\n    return x\n"
    report = lint_snippet(source, display="src/repro/cluster/x.py")
    assert "RL005" in rule_ids(report)


def test_forced_profile_overrides_map():
    source = "import time\ndef now():\n    return time.time()\n"
    report = lint_snippet(source, display="src/repro/sim/x.py", profile="relaxed")
    assert "RL010" not in rule_ids(report)
    with pytest.raises(ValueError):
        Linter(profile="no-such-profile")


def test_profiles_registry_is_complete():
    assert set(PROFILES) == {"strict", "relaxed"}
    catalog = {rule.id for rule in default_rules()}
    assert PROFILES["strict"].rule_ids == catalog
    assert PROFILES["relaxed"].rule_ids < catalog


def test_relaxed_profile_is_hygiene_only():
    assert PROFILES["relaxed"].rule_ids == {"RL004", "RL005"}


def test_catalog_states_each_invariant_once():
    assert [rule.id for rule in default_rules()] == [
        f"RL{n:03d}" for n in range(4, 13)
    ]


# --------------------------------------------------------------------------
# Reporters and CLI
# --------------------------------------------------------------------------


def test_json_report_schema_round_trip():
    source = (
        "def a(x=[]):\n"
        "    return x\n"
        "def b(y=[]):  # lint: allow[RL005] fixture-approved\n"
        "    return y\n"
    )
    report = lint_snippet(source, display="src/repro/core/mod.py")
    payload = json.loads(render_json(report))
    assert payload["schema"] == "reprolint-report/3"
    assert payload["summary"]["files"] == 1
    assert payload["summary"]["unwaived"] == 1
    assert payload["summary"]["waived"] == 1
    assert payload["findings"] == [f.as_dict() for f in report.findings]


def test_text_report_format():
    report = lint_snippet(
        "def a(x=[]):\n    return x\n", display="src/repro/core/mod.py"
    )
    text = render_text(report)
    assert "src/repro/core/mod.py:1:" in text and "RL005" in text
    assert "reprolint: 1 files, 1 finding (0 waived)" in text


def test_finding_as_dict_carries_every_field():
    """``render_json`` writes ``as_dict``: no field of a finding is lost."""
    chain = [{"function": "repro.sim.engine.run", "path": "a.py", "line": 3}]
    finding = Finding(
        rule="RL009", path="a.py", line=3, col=7, message="m",
        waived=True, waiver_reason="r", chain=chain,
    )
    assert finding.as_dict() == {
        "rule": "RL009", "path": "a.py", "line": 3, "col": 7, "message": "m",
        "waived": True, "waiver_reason": "r", "chain": chain,
    }
    assert set(finding.as_dict()) == {f.name for f in fields(Finding)}
    assert "chain" not in Finding("RL005", "a.py", 1, 0, "m").as_dict()


def test_cli_clean_and_dirty(tmp_path):
    clean = tmp_path / "src" / "repro" / "core" / "clean.py"
    clean.parent.mkdir(parents=True)
    clean.write_text('__all__ = ["f"]\ndef f():\n    return 1\n')
    consumer = clean.with_name("consumer.py")
    consumer.write_text("from repro.core.clean import f\n\nVALUE = f()\n")
    assert lint_main([str(clean), str(consumer)]) == 0
    dirty = clean.with_name("dirty.py")
    dirty.write_text("def f(x=[]):\n    return x\n")
    assert lint_main([str(dirty)]) == 1


def test_cli_json_output(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text("def f(x=[]):\n    return x\n")
    out_file = tmp_path / "report.json"
    code = lint_main([str(target), "--format", "json", "--output", str(out_file)])
    assert code == 1
    payload = json.loads(out_file.read_text())
    assert payload["schema"] == "reprolint-report/3"
    assert payload["findings"][0]["rule"] == "RL005"


def test_cli_writes_nothing_but_the_output_file(tmp_path, monkeypatch):
    fixture = tmp_path / "fixture" / "src" / "repro" / "core" / "mod.py"
    fixture.parent.mkdir(parents=True)
    fixture.write_text("def f(x=[]):\n    return x\n")
    workdir = tmp_path / "work"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    assert lint_main([str(fixture.parent), "--output", "report.txt"]) == 1
    assert lint_main([str(fixture.parent)]) == 1
    assert [p.name for p in workdir.iterdir()] == ["report.txt"]


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in default_rules():
        assert rule.id in out


# --------------------------------------------------------------------------
# The tier-1 gate: the repo's own source must lint clean.
# --------------------------------------------------------------------------


def test_src_tree_lints_clean():
    """Every finding in src/ is either fixed or waived with a reason."""
    report = Linter().lint_paths([REPO_ROOT / "src"])
    assert report.files_checked > 0
    offenders = "\n".join(
        f"{f.path}:{f.line} {f.rule} {f.message}" for f in report.unwaived
    )
    assert report.ok, f"unwaived lint findings in src/:\n{offenders}"
    for finding in report.waived:
        assert finding.waiver_reason, f"waiver without reason: {finding}"


def test_benchmarks_tree_lints_clean():
    """The four trees lint clean in one index, within the waiver budget.

    benchmarks/, tests/ and examples/ gate under the relaxed profile; the
    index spans src/ too, so their references to src/ exports count.
    """
    trees = [
        REPO_ROOT / name for name in ("src", "benchmarks", "tests", "examples")
    ]
    report = Linter().lint_paths(trees)
    assert report.files_checked > 0
    offenders = "\n".join(
        f"{f.path}:{f.line} {f.rule} {f.message}" for f in report.unwaived
    )
    assert report.ok, f"unwaived lint findings:\n{offenders}"
    assert len(report.waived) <= WAIVER_BUDGET, (
        f"{len(report.waived)} waived findings, budget {WAIVER_BUDGET}: "
        f"{report.waived_by_rule()}"
    )


def test_tree_under_a_hidden_directory_still_lints(tmp_path):
    """Only dot-named entries *below* a directory argument are skipped."""
    module = tmp_path / ".work" / "src" / "repro" / "core" / "mod.py"
    module.parent.mkdir(parents=True)
    module.write_text("def f(x=[]):\n    return x\n")
    (module.parent / ".scratch.py").write_text("def g(y=[]):\n    return y\n")
    report = Linter().lint_paths([tmp_path / ".work" / "src"])
    assert report.files_checked == 1
    assert rule_ids(report) == ["RL005"]
    assert Linter().lint_paths([module.parent / ".scratch.py"]).files_checked == 1


#: The only report-shaped methods ``src/`` keeps: the two the end-to-end
#: benchmark calls, the shard-boundary byte ledger's read surface, and the
#: registry's one read-all view.  Every other counter is read where it is
#: kept (an attribute or a registry counter).
KEPT_REPORT_METHODS = {
    "DispatcherHotCache.stats",
    "FileServer.stats",
    "ShardedForwarder.boundary_stats",
    "MetricsRegistry.snapshot",
}


def test_no_hand_rolled_report_methods_in_src():
    """Every method named ``stats``, ``*_stats`` or ``snapshot`` in src/ is kept on purpose."""
    found = set()
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                    item.name in ("stats", "snapshot") or item.name.endswith("_stats")
                ):
                    found.add(f"{node.name}.{item.name}")
    assert found == KEPT_REPORT_METHODS
