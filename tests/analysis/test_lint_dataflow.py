"""Dataflow reprolint layer: RL013-RL014, witness paths, cache pruning,
SARIF output.

Every gating rule gets a fire-and-waiver pair, and every fire asserts
the *witness path* — the structured ``chain`` naming def → escape →
mutation (RL013) or acquire → leaking exit (RL014) — not just the rule
id.  The sanctioned copy-then-patch idiom is proven clean against both a
fixture and the real ``packet.py``.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

from repro.analysis.lint import (
    Linter,
    SourceFile,
    SummaryCache,
    default_rules,
    render_sarif,
)
from repro.analysis.lint.dataflow import analyze_function

REPO_ROOT = Path(__file__).resolve().parents[2]


def lint_fixture(modules: dict[str, str]):
    """Lint an in-memory multi-module project (sorted for determinism)."""
    return Linter().lint_modules(
        [SourceFile(display, text) for display, text in sorted(modules.items())]
    )


def findings_for(report, rule: str, waived=False):
    return [f for f in report.findings if f.rule == rule and f.waived == waived]


# --------------------------------------------------------------------------
# RL013: escape-then-mutate
# --------------------------------------------------------------------------

_RL013_HOT = "src/repro/ndn/strategy.py"


def test_rl013_fires_on_mutation_after_attribute_escape():
    report = lint_fixture({
        _RL013_HOT: (
            "class Strategy:\n"
            "    def stash(self, pkt):\n"
            "        buf = bytearray(pkt.wire)\n"
            "        self.cache = buf\n"
            "        buf[0] = 1\n"
        ),
    })
    found = findings_for(report, "RL013")
    assert len(found) == 1
    finding = found[0]
    assert finding.line == 5
    assert "escape" in finding.message or "stored on" in finding.message
    # Witness path: def -> escape -> mutation, with the real lines.
    assert finding.chain is not None
    assert [hop["line"] for hop in finding.chain] == [3, 4, 5]
    assert finding.chain[0]["function"].endswith("Strategy.stash")
    assert finding.chain[1]["function"].startswith("escape:")
    assert finding.chain[2]["function"].startswith("mutation:")


def test_rl013_fires_on_mutation_after_container_escape():
    report = lint_fixture({
        _RL013_HOT: (
            "class Strategy:\n"
            "    def enqueue(self, ledger, pkt):\n"
            "        frame = bytearray(pkt.wire)\n"
            "        ledger.append(frame)\n"
            "        frame.extend(pkt.trailer)\n"
        ),
    })
    found = findings_for(report, "RL013")
    assert len(found) == 1
    assert "mutated in place" in found[0].message


def test_rl013_waiver_suppresses_and_registers():
    report = lint_fixture({
        _RL013_HOT: (
            "class Strategy:\n"
            "    def stash(self, pkt):\n"
            "        buf = bytearray(pkt.wire)\n"
            "        self.cache = buf\n"
            "        buf[0] = 1  # lint: allow[RL013] parent-only scratch copy\n"
        ),
    })
    assert not findings_for(report, "RL013")
    waived = findings_for(report, "RL013", waived=True)
    assert len(waived) == 1
    assert waived[0].waiver_reason == "parent-only scratch copy"
    assert report.ok


def test_rl013_copy_then_patch_idiom_is_proven_clean():
    # Mutation strictly precedes the escape, and the published value is a
    # bytes() copy: the sanctioned hop-limit patch shape must never fire.
    report = lint_fixture({
        _RL013_HOT: (
            "class Strategy:\n"
            "    def decrement(self, pkt, pos):\n"
            "        patched = bytearray(pkt.wire)\n"
            "        patched[pos] -= 1\n"
            "        self.out = bytes(patched)\n"
        ),
    })
    assert not findings_for(report, "RL013")
    assert not findings_for(report, "RL013", waived=True)


def test_rl013_escape_through_project_callee_one_call_deep():
    report = lint_fixture({
        _RL013_HOT: (
            "from repro.ndn.ledger import admit_frame\n"
            "\n"
            "def relay(pkt):\n"
            "    buf = bytearray(pkt.wire)\n"
            "    admit_frame(buf)\n"
            "    buf[0] = 7\n"
        ),
        "src/repro/ndn/ledger.py": (
            "LEDGER = []\n"
            "\n"
            "def admit_frame(frame_buf):\n"
            "    LEDGER.append(frame_buf)\n"
        ),
    })
    found = findings_for(report, "RL013")
    assert len(found) == 1
    assert "admit_frame" in found[0].message


def test_rl013_unresolved_external_call_proves_nothing():
    report = lint_fixture({
        _RL013_HOT: (
            "import zlib\n"
            "\n"
            "def checksum(pkt):\n"
            "    buf = bytearray(pkt.wire)\n"
            "    zlib.crc32(buf)\n"
            "    buf[0] = 1\n"
        ),
    })
    assert not findings_for(report, "RL013")


# --------------------------------------------------------------------------
# RL014: resource leaks
# --------------------------------------------------------------------------

_RL014_MOD = "src/repro/sim/io_util.py"


def test_rl014_fires_on_conditionally_leaking_open():
    report = lint_fixture({
        _RL014_MOD: (
            "def read_maybe(path, cond):\n"
            "    handle = open(path)\n"
            "    if cond:\n"
            "        return None\n"
            "    data = handle.read()\n"
            "    handle.close()\n"
            "    return data\n"
        ),
    })
    found = findings_for(report, "RL014")
    assert len(found) == 1
    finding = found[0]
    assert finding.line == 2
    assert "never closes" in finding.message
    # Witness path: the acquire hop and the leaking-exit hop.
    assert finding.chain is not None
    assert "open(...)" in finding.chain[0]["function"]
    assert finding.chain[-1]["function"] == "function exit without release"


def test_rl014_waiver_suppresses_and_registers():
    report = lint_fixture({
        _RL014_MOD: (
            "def read_maybe(path, cond):\n"
            "    # lint: allow[RL014] handle ownership moves to the caller registry\n"
            "    handle = open(path)\n"
            "    if cond:\n"
            "        return None\n"
            "    handle.close()\n"
            "    return None\n"
        ),
    })
    assert not findings_for(report, "RL014")
    waived = findings_for(report, "RL014", waived=True)
    assert len(waived) == 1
    assert report.ok


def test_rl014_with_statement_satisfies_trivially():
    report = lint_fixture({
        _RL014_MOD: (
            "def read(path):\n"
            "    with open(path) as handle:\n"
            "        return handle.read()\n"
        ),
    })
    assert not findings_for(report, "RL014")


def test_rl014_every_release_shape_is_clean():
    report = lint_fixture({
        _RL014_MOD: (
            "def closed(path):\n"
            "    handle = open(path)\n"
            "    handle.close()\n"
            "\n"
            "def returned(path):\n"
            "    handle = open(path)\n"
            "    return handle\n"
            "\n"
            "class Holder:\n"
            "    def stored(self, path):\n"
            "        self.handle = open(path)\n"
            "\n"
            "    def stored_local(self, path):\n"
            "        handle = open(path)\n"
            "        self.handle = handle\n"
        ),
    })
    assert not findings_for(report, "RL014")


def test_rl014_pipe_pair_with_worker_handoff_is_clean():
    # The shard.py idiom: parent keeps one end (stored on self), the
    # child's end is closed after fork.
    report = lint_fixture({
        _RL014_MOD: (
            "class Pool:\n"
            "    def spawn(self, context, target):\n"
            "        parent_conn, child_conn = context.Pipe(duplex=True)\n"
            "        proc = context.Process(target=target, args=(child_conn,))\n"
            "        proc.start()\n"
            "        child_conn.close()\n"
            "        self._conns.append(parent_conn)\n"
        ),
    })
    assert not findings_for(report, "RL014")


def test_rl014_fires_when_pipe_end_is_never_closed():
    report = lint_fixture({
        _RL014_MOD: (
            "class Pool:\n"
            "    def spawn(self, context, target):\n"
            "        parent_conn, child_conn = context.Pipe(duplex=True)\n"
            "        proc = context.Process(target=target)\n"
            "        proc.start()\n"
            "        self._conns.append(parent_conn)\n"
        ),
    })
    found = findings_for(report, "RL014")
    assert len(found) == 1
    assert "'child_conn'" in found[0].message


def test_rl014_release_through_project_callee_absolves():
    report = lint_fixture({
        _RL014_MOD: (
            "from repro.sim.closer import shutdown_handle\n"
            "\n"
            "def managed(path):\n"
            "    handle = open(path)\n"
            "    shutdown_handle(handle)\n"
        ),
        "src/repro/sim/closer.py": (
            "def shutdown_handle(handle):\n"
            "    handle.close()\n"
        ),
    })
    assert not findings_for(report, "RL014")


def test_rl014_project_callee_that_never_releases_does_not_absolve():
    report = lint_fixture({
        _RL014_MOD: (
            "from repro.sim.peeker import peek_handle\n"
            "\n"
            "def managed(path):\n"
            "    handle = open(path)\n"
            "    peek_handle(handle)\n"
        ),
        "src/repro/sim/peeker.py": (
            "def peek_handle(handle):\n"
            "    return handle.fileno()\n"
        ),
    })
    found = findings_for(report, "RL014")
    assert len(found) == 1
    assert any("peek_handle" in hop["function"] for hop in found[0].chain)


def test_rl014_lock_acquire_without_release_fires():
    report = lint_fixture({
        _RL014_MOD: (
            "def critical(lock, work):\n"
            "    lock.acquire()\n"
            "    work()\n"
        ),
    })
    found = findings_for(report, "RL014")
    assert len(found) == 1
    assert "acquire" in found[0].message


def test_rl014_gates_benchmarks_through_the_relaxed_profile():
    report = lint_fixture({
        "benchmarks/bench_leaky.py": (
            "def run(path):\n"
            "    handle = open(path)\n"
            "    return handle.read()\n"
        ),
    })
    found = findings_for(report, "RL014")
    assert len(found) == 1
    assert not report.ok


# --------------------------------------------------------------------------
# The real tree: idioms that must stay clean, summaries that must exist
# --------------------------------------------------------------------------


def test_real_packet_copy_then_patch_stays_clean():
    packet = REPO_ROOT / "src" / "repro" / "ndn" / "packet.py"
    report = lint_fixture({
        "src/repro/ndn/packet.py": packet.read_text(encoding="utf-8"),
    })
    assert not findings_for(report, "RL013")
    assert not findings_for(report, "RL013", waived=True)


def test_function_flow_is_json_round_trippable():
    func = ast.parse(
        "def f(self, path, wire_buf):\n"
        "    handle = open(path)\n"
        "    self.keep = wire_buf\n"
        "    wire_buf[0] = 1\n"
    ).body[0]
    flow = analyze_function(func)
    assert flow == json.loads(json.dumps(flow))
    assert "escape_mutations" in flow
    assert "leaks" in flow
    assert flow["param_escapes"] == ["wire_buf"]


# --------------------------------------------------------------------------
# SummaryCache.prune: deleted files leave the cache
# --------------------------------------------------------------------------


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
# SARIF output
# --------------------------------------------------------------------------


def test_sarif_maps_rules_findings_chains_and_suppressions():
    report = lint_fixture({
        _RL013_HOT: (
            "class Strategy:\n"
            "    def stash(self, pkt):\n"
            "        buf = bytearray(pkt.wire)\n"
            "        self.cache = buf\n"
            "        buf[0] = 1\n"
            "\n"
            "    def waived(self, pkt):\n"
            "        buf = bytearray(pkt.wire)\n"
            "        self.cache2 = buf\n"
            "        buf[0] = 1  # lint: allow[RL013] scratch copy\n"
        ),
    })
    document = json.loads(render_sarif(report))
    assert document["version"] == "2.1.0"
    run = document["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "reprolint"
    rule_ids = [rule["id"] for rule in driver["rules"]]
    assert rule_ids == sorted(rule_ids)
    assert {"RL012", "RL013", "RL014"} <= set(rule_ids)
    # Advisory rules carry a "note" default level.
    by_id = {rule["id"]: rule for rule in driver["rules"]}
    assert by_id["RL012"]["defaultConfiguration"]["level"] == "note"
    assert by_id["RL013"]["defaultConfiguration"]["level"] == "error"

    results = run["results"]
    fired = [r for r in results if r["ruleId"] == "RL013" and "suppressions" not in r]
    suppressed = [r for r in results if r.get("suppressions")]
    assert len(fired) == 1
    assert len(suppressed) == 1
    assert suppressed[0]["suppressions"][0]["kind"] == "inSource"
    assert suppressed[0]["suppressions"][0]["justification"] == "scratch copy"
    # The witness chain maps to codeFlows/threadFlows locations.
    flow_locations = fired[0]["codeFlows"][0]["threadFlows"][0]["locations"]
    assert [
        loc["location"]["physicalLocation"]["region"]["startLine"]
        for loc in flow_locations
    ] == [3, 4, 5]
    uri = fired[0]["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
    assert uri == "src/repro/ndn/strategy.py"


def test_sarif_rule_metadata_matches_catalog():
    report = lint_fixture({_RL014_MOD: "x = 1\n"})
    document = json.loads(render_sarif(report))
    rules = document["runs"][0]["tool"]["driver"]["rules"]
    assert len(rules) == len(default_rules())


# --------------------------------------------------------------------------
# Warm cache parity for the dataflow layer
# --------------------------------------------------------------------------


def test_flow_rules_fire_identically_from_a_warm_cache(tmp_path):
    source_dir = tmp_path / "src" / "repro" / "ndn"
    source_dir.mkdir(parents=True)
    (source_dir / "hotmod.py").write_text(
        "class Strategy:\n"
        "    def stash(self, pkt):\n"
        "        buf = bytearray(pkt.wire)\n"
        "        self.cache = buf\n"
        "        buf[0] = 1\n",
        encoding="utf-8",
    )
    # The fixture module name must land in RL013 scope.
    target = source_dir / "strategy.py"
    (source_dir / "hotmod.py").rename(target)
    cache_file = tmp_path / "cache.json"
    linter = Linter()

    cache = SummaryCache(cache_file, linter.config_signature())
    cold = linter.lint_paths([tmp_path / "src"], cache=cache)
    assert cache.misses > 0

    cache = SummaryCache(cache_file, linter.config_signature())
    warm = linter.lint_paths([tmp_path / "src"], cache=cache)
    assert cache.hits > 0 and cache.misses == 0

    def key(report):
        return [
            (f.rule, f.path, f.line, f.message, f.chain)
            for f in report.findings
        ]

    assert key(cold) == key(warm)
    assert [f.rule for f in cold.findings if f.rule == "RL013"] == ["RL013"]
