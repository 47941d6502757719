"""reprolint core: files, waivers, rules, profiles and the driver.

The linter is deliberately self-contained (stdlib :mod:`ast` + :mod:`tokenize`
only) so it can run in CI and in the tier-1 test suite with zero extra
dependencies.  The moving parts:

* :class:`SourceFile` — one parsed module: source text, AST, and the waiver
  comments extracted from its token stream.
* :class:`Rule` / :class:`SummaryRule` — a check over one file, or over the
  module summaries and call graph of the whole scanned file set
  (cross-module symbol tables, e.g. the TLV type registry check).
* :class:`Profile` — a named rule subset; profiles are resolved per *path*
  (strict for the forwarding plane and the simulator, relaxed hygiene-only
  for cluster/benchmarks/tests) so one invocation can sweep a mixed tree.
* :class:`Linter` — drives rules over files, applies waivers, and returns a
  :class:`LintReport`.

Waiver syntax
-------------
A finding is suppressed by an in-source comment naming the rule **and** a
reason::

    started = time.perf_counter()  # lint: allow[RL010] host-time probe, reported only

A waiver on its own line suppresses findings on the *next* line instead
(for statements too long to share a line with the comment).  Each waiver
suppresses exactly one line; ``allow[*]`` suppresses every rule on that
line.  A waiver without a reason, or naming an unknown rule, is itself a
finding (``RL000``) — waivers are part of the audited surface, not an
escape hatch.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

__all__ = [
    "Finding",
    "Waiver",
    "SourceFile",
    "Rule",
    "SummaryRule",
    "ModuleRecord",
    "Profile",
    "LintReport",
    "Linter",
    "dotted_name",
    "norm_path",
    "profile_for_path",
    "PROFILES",
    "DEFAULT_PROFILE_MAP",
    "META_RULE_ID",
]

#: Rule id used for linter-level findings (syntax errors, malformed waivers).
#: Deliberately not waivable: a broken waiver must not hide behind itself.
META_RULE_ID = "RL000"


@dataclass(slots=True)
class Finding:
    """One rule violation at a source location.

    Interprocedural findings additionally carry ``chain``: the witness
    call path as a list of ``{"function", "path", "line"}`` hops ending
    at the sink.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    waived: bool = False
    waiver_reason: str = ""
    chain: Optional[list] = None

    def as_dict(self) -> dict:
        document = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "waived": self.waived,
            "waiver_reason": self.waiver_reason,
        }
        if self.chain is not None:
            document["chain"] = self.chain
        return document


_WAIVER_RE = re.compile(r"#\s*lint:\s*allow\[([^\]]*)\]\s*(.*)$")


@dataclass(slots=True)
class Waiver:
    """One ``# lint: allow[rule] reason`` comment."""

    line: int
    rules: frozenset[str]
    reason: str
    #: True when the comment is alone on its line — it then covers line + 1.
    standalone: bool

    @property
    def target_line(self) -> int:
        return self.line + 1 if self.standalone else self.line

    def covers(self, rule: str) -> bool:
        return "*" in self.rules or rule in self.rules


def norm_path(path: "str | Path") -> str:
    """Posix-style path with a leading slash, for substring scope matching."""
    text = str(path).replace("\\", "/")
    return text if text.startswith("/") else "/" + text


class SourceFile:
    """A parsed module plus its waivers; the unit every rule operates on."""

    __slots__ = ("path", "display", "source", "tree", "waivers", "parse_error")

    def __init__(self, display: str, source: str) -> None:
        self.display = display
        self.path = norm_path(display)
        self.source = source
        self.parse_error: Optional[str] = None
        try:
            self.tree: Optional[ast.Module] = ast.parse(source, filename=display)
        except SyntaxError as exc:
            self.tree = None
            self.parse_error = f"syntax error: {exc.msg} (line {exc.lineno})"
        self.waivers: list[Waiver] = _scan_waivers(source)


def _scan_waivers(source: str) -> list[Waiver]:
    """Extract waiver comments from the token stream (never from strings)."""
    waivers: list[Waiver] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _WAIVER_RE.search(token.string)
            if match is None:
                continue
            rules = frozenset(
                part.strip() for part in match.group(1).split(",") if part.strip()
            )
            line = token.start[0]
            prefix = token.line[: token.start[1]]
            waivers.append(
                Waiver(
                    line=line,
                    rules=rules,
                    reason=match.group(2).strip(),
                    standalone=not prefix.strip(),
                )
            )
    except tokenize.TokenError:
        pass  # the AST parse reports the syntax error; waivers stay best-effort
    return waivers


class Rule:
    """Base class: one static check applied file by file.

    Subclasses set ``id``/``title``/``rationale`` and implement
    :meth:`check`.  ``scope_dirs``/``scope_files`` bound where the rule
    applies (substring / suffix match on the normalised path);
    ``exclude_files`` carves out sanctioned exceptions (e.g. the seeded RNG
    module is exempt from the determinism rule *by design*, not by waiver).
    """

    id: str = ""
    title: str = ""
    rationale: str = ""
    #: Path substrings, e.g. "/repro/ndn/". Empty = every file.
    scope_dirs: tuple[str, ...] = ()
    #: Path suffixes, e.g. "/repro/sim/engine.py". Checked after scope_dirs.
    scope_files: tuple[str, ...] = ()
    #: Path suffixes exempted even when in scope.
    exclude_files: tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        if any(path.endswith(suffix) for suffix in self.exclude_files):
            return False
        if not self.scope_dirs and not self.scope_files:
            return True
        if any(marker in path for marker in self.scope_dirs):
            return True
        return any(path.endswith(suffix) for suffix in self.scope_files)

    def check(self, module: SourceFile) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, node: "ast.AST | int", message: str) -> Finding:
        """A finding anchored at ``node``; the driver fills in the path."""
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        col = 0 if isinstance(node, int) else getattr(node, "col_offset", 0)
        return Finding(rule=self.id, path="", line=line, col=col, message=message)


class SummaryRule(Rule):
    """A project rule that runs on module summaries and the call graph.

    A summary rule never needs an AST: the project phase holds module
    summaries only.
    ``records`` is the in-scope subset (profile + path filtering already
    applied); ``index`` is the whole-program
    :class:`~repro.analysis.lint.callgraph.ProjectIndex`.
    """

    def check(self, module: SourceFile) -> Iterator[Finding]:
        return iter(())

    def check_summaries(
        self, records: Sequence["ModuleRecord"], index
    ) -> Iterator[Finding]:
        raise NotImplementedError


@dataclass
class ModuleRecord:
    """One module's lint state: the unit the linter holds per file.

    ``local_findings`` are the line-local rule results *before* waiver
    application (waivers are applied uniformly at report time, together
    with the project findings).  ``summary`` feeds the interprocedural
    layer.
    """

    display: str
    path: str
    profile_name: str
    waivers: list[Waiver] = field(default_factory=list)
    parse_error: Optional[str] = None
    local_findings: list[Finding] = field(default_factory=list)
    summary: Optional[object] = None

    def waiver_for(self, rule: str, line: int) -> Optional[Waiver]:
        for waiver in self.waivers:
            if waiver.target_line == line and waiver.covers(rule):
                return waiver
        return None


@dataclass(frozen=True)
class Profile:
    """A named subset of the rule catalog."""

    name: str
    rule_ids: frozenset[str]

    def enables(self, rule: Rule) -> bool:
        return rule.id in self.rule_ids


_ALL_RULE_IDS = frozenset(
    {
        "RL004", "RL005", "RL006", "RL007", "RL008",
        "RL009", "RL010", "RL011", "RL012",
    }
)

PROFILES: dict[str, Profile] = {
    #: Full catalog: the forwarding plane and simulator live here, but the
    #: invariant rules self-scope, so strict is safe for the whole of src/.
    "strict": Profile("strict", _ALL_RULE_IDS),
    #: Hygiene only: exception discipline and mutable defaults.
    "relaxed": Profile("relaxed", frozenset({"RL004", "RL005"})),
}

#: Ordered (path substring, profile name); first match wins, default strict.
DEFAULT_PROFILE_MAP: tuple[tuple[str, str], ...] = (
    ("/repro/cluster/", "relaxed"),
    ("/benchmarks/", "relaxed"),
    ("/tests/", "relaxed"),
    ("/examples/", "relaxed"),
)


def profile_for_path(
    path: str, profile_map: Sequence[tuple[str, str]] = DEFAULT_PROFILE_MAP
) -> str:
    normalised = norm_path(path)
    for marker, name in profile_map:
        if marker in normalised:
            return name
    return "strict"


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    profiles_used: dict[str, int] = field(default_factory=dict)

    @property
    def unwaived(self) -> list[Finding]:
        """Gating findings: every finding no waiver covers."""
        return [finding for finding in self.findings if not finding.waived]

    @property
    def waived(self) -> list[Finding]:
        return [finding for finding in self.findings if finding.waived]

    @property
    def ok(self) -> bool:
        return not self.unwaived

    def by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def waived_by_rule(self) -> dict[str, int]:
        """Per-rule waiver counts: the audited surface of the waiver budget."""
        counts: dict[str, int] = {}
        for finding in self.waived:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))


class Linter:
    """Drives the rule catalog over a file set and applies waivers.

    ``profile`` forces one profile for every file; the default resolves the
    profile per path via ``profile_map`` (see :data:`DEFAULT_PROFILE_MAP`).
    """

    def __init__(
        self,
        rules: Optional[Sequence[Rule]] = None,
        profile: Optional[str] = None,
        profile_map: Sequence[tuple[str, str]] = DEFAULT_PROFILE_MAP,
    ) -> None:
        if rules is None:
            from repro.analysis.lint.rules import default_rules

            rules = default_rules()
        self.rules = list(rules)
        if profile is not None and profile not in PROFILES:
            raise ValueError(
                f"unknown profile {profile!r}; have {sorted(PROFILES)}"
            )
        self.forced_profile = profile
        self.profile_map = tuple(profile_map)

    # ------------------------------------------------------------ file intake

    def collect_files(self, paths: Iterable["str | Path"]) -> list[Path]:
        """Expand files/directories into a sorted, de-duplicated .py list.

        Below a directory argument, ``__pycache__`` and dot-named entries
        are skipped; the directory's own ancestors are not looked at, so a
        tree checked out under a hidden directory still lints.  A file
        named explicitly is always linted.  The result is ordered by
        normalised posix path — independent of input order,
        directory/file mixing, and filesystem enumeration — so reports
        are reproducible across runs and hosts.
        """
        out: list[Path] = []
        seen: set[Path] = set()
        for raw in paths:
            path = Path(raw)
            if path.is_dir():
                candidates = [
                    candidate
                    for candidate in sorted(path.rglob("*.py"))
                    if not any(
                        part == "__pycache__" or part.startswith(".")
                        for part in candidate.relative_to(path).parts
                    )
                ]
            else:
                candidates = [path]
            for candidate in candidates:
                resolved = candidate.resolve()
                if resolved not in seen:
                    seen.add(resolved)
                    out.append(candidate)
        out.sort(key=lambda p: norm_path(p))
        return out

    # ------------------------------------------------------------ records

    def _profile_name_for(self, path: str) -> str:
        return self.forced_profile or profile_for_path(path, self.profile_map)

    def _build_record(self, module: SourceFile) -> ModuleRecord:
        """Run the per-module phase: line-local rules + summary extraction."""
        from repro.analysis.lint.symbols import summarize

        profile_name = self._profile_name_for(module.path)
        record = ModuleRecord(
            display=module.display,
            path=module.path,
            profile_name=profile_name,
            waivers=list(module.waivers),
            parse_error=module.parse_error,
        )
        if module.parse_error is not None:
            return record
        profile = PROFILES[profile_name]
        for rule in self.rules:
            if isinstance(rule, SummaryRule):
                continue
            if profile.enables(rule) and rule.applies_to(module.path):
                for found in rule.check(module):
                    if not found.path:
                        found.path = module.display
                    record.local_findings.append(found)
        record.summary = summarize(module)
        return record

    # ------------------------------------------------------------ linting

    def lint_paths(self, paths: Iterable["str | Path"]) -> LintReport:
        """Lint files/directories: parse each once, then the project phase."""
        records: list[ModuleRecord] = []
        for path in self.collect_files(paths):
            display = str(path)
            try:
                text = Path(path).read_text(encoding="utf-8")
            except OSError as exc:
                records.append(
                    ModuleRecord(
                        display=display,
                        path=norm_path(display),
                        profile_name=self._profile_name_for(norm_path(display)),
                        parse_error=f"unreadable file: {exc}",
                    )
                )
                continue
            records.append(self._build_record(SourceFile(display, text)))
        return self._finalize(records)

    def lint_source(self, source: str, display: str = "<string>") -> LintReport:
        """Lint one in-memory snippet (the self-test entry point)."""
        return self.lint_modules([SourceFile(display, source)])

    def lint_modules(self, modules: Sequence[SourceFile]) -> LintReport:
        return self._finalize([self._build_record(module) for module in modules])

    def _finalize(self, records: Sequence[ModuleRecord]) -> LintReport:
        """The project phase: cross-module rules, waivers, ordering."""
        report = LintReport(files_checked=len(records))
        raw: list[Finding] = []
        profile_of: dict[str, Profile] = {}
        for record in records:
            profile_of[record.path] = PROFILES[record.profile_name]
            report.profiles_used[record.profile_name] = (
                report.profiles_used.get(record.profile_name, 0) + 1
            )
            if record.parse_error is not None:
                raw.append(
                    Finding(
                        rule=META_RULE_ID,
                        path=record.display,
                        line=1,
                        col=0,
                        message=record.parse_error,
                    )
                )
                continue
            raw.extend(record.local_findings)
        raw.extend(self._project_findings(records, profile_of))
        raw.extend(self._audit_waivers(records))
        sanctioned_used: set[tuple[str, int]] = set()
        raw.extend(self._sanctioned_findings(records, sanctioned_used))
        by_path = {record.path: record for record in records}
        deduped: dict[tuple[str, str, int], Finding] = {}
        for finding in raw:
            deduped.setdefault((finding.rule, finding.path, finding.line), finding)
        used_waivers: set[tuple[str, int]] = set(sanctioned_used)
        for finding in deduped.values():
            record = by_path.get(norm_path(finding.path))
            if (
                record is not None
                and finding.rule != META_RULE_ID
                and not finding.waived
            ):
                waiver = record.waiver_for(finding.rule, finding.line)
                if waiver is not None and waiver.reason:
                    finding.waived = True
                    finding.waiver_reason = waiver.reason
                    used_waivers.add((record.path, waiver.line))
            report.findings.append(finding)
        # A waiver that suppresses nothing is stale: the violation it covered
        # was fixed (or never existed), so the comment now only misleads.
        known = {rule.id for rule in self.rules}
        for record in records:
            if record.parse_error is not None:
                continue  # a broken parse finds nothing; don't pile on
            for waiver in record.waivers:
                if (record.path, waiver.line) in used_waivers:
                    continue
                if not waiver.reason or (waiver.rules - known - {"*"}):
                    continue  # already flagged by _audit_waivers
                report.findings.append(
                    Finding(
                        rule=META_RULE_ID,
                        path=record.display,
                        line=waiver.line,
                        col=0,
                        message="unused waiver: no finding for "
                        f"[{', '.join(sorted(waiver.rules))}] on its line; "
                        "remove the stale comment",
                    )
                )
        report.findings.sort(key=lambda f: (f.path, f.line, f.rule, f.col))
        return report

    def _project_findings(
        self,
        records: Sequence[ModuleRecord],
        profile_of: dict[str, Profile],
    ) -> Iterator[Finding]:
        """Run the summary/call-graph rules."""
        summary_rules = [r for r in self.rules if isinstance(r, SummaryRule)]
        if summary_rules:
            from repro.analysis.lint.callgraph import ProjectIndex

            index = ProjectIndex(
                record.summary for record in records if record.summary is not None
            )
            for rule in summary_rules:
                in_scope = [
                    record
                    for record in records
                    if record.summary is not None
                    and profile_of[record.path].enables(rule)
                    and rule.applies_to(record.path)
                ]
                if in_scope:
                    yield from rule.check_summaries(in_scope, index)

    def _sanctioned_findings(
        self,
        records: Sequence[ModuleRecord],
        used: set[tuple[str, int]],
    ) -> Iterator[Finding]:
        """Surface sink-side transitive waivers as waived findings.

        A ``# lint: allow[RL009-011]`` on a sink line stops the effect
        from propagating at all (see :mod:`repro.analysis.lint.symbols`);
        emitting the suppression as a waived finding keeps it inside the
        audited waiver surface — it counts against the budget and the
        waiver registers as used.
        """
        for record in records:
            if record.summary is None:
                continue
            for entry in record.summary.sanctioned:
                used.add((record.path, entry["waiver_line"]))
                yield Finding(
                    rule=entry["rule"],
                    path=record.display,
                    line=entry["line"],
                    col=0,
                    message=(
                        f"sanctioned sink: {entry['desc']} never propagates "
                        "to callers (waived at source)"
                    ),
                    waived=True,
                    waiver_reason=entry["reason"],
                )

    def _audit_waivers(self, records: Sequence[ModuleRecord]) -> Iterator[Finding]:
        """Malformed waivers are findings: no reason, or an unknown rule id."""
        known = {rule.id for rule in self.rules}
        for record in records:
            for waiver in record.waivers:
                if not waiver.reason:
                    yield Finding(
                        rule=META_RULE_ID,
                        path=record.display,
                        line=waiver.line,
                        col=0,
                        message="waiver without a reason: state why the "
                        "violation is acceptable",
                    )
                unknown = waiver.rules - known - {"*"}
                if unknown:
                    yield Finding(
                        rule=META_RULE_ID,
                        path=record.display,
                        line=waiver.line,
                        col=0,
                        message=f"waiver names unknown rule(s): {sorted(unknown)}",
                    )


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
