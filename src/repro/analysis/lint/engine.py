"""reprolint core: files, waivers, rules, profiles and the driver.

The linter is deliberately self-contained (stdlib :mod:`ast` + :mod:`tokenize`
only) so it can run in CI and in the tier-1 test suite with zero extra
dependencies.  The moving parts:

* :class:`SourceFile` — one parsed module: source text, AST, and the waiver
  comments extracted from its token stream.
* :class:`Rule` / :class:`ProjectRule` — a check over one file, or over the
  whole scanned file set (cross-module symbol tables, e.g. the TLV type
  registry check).
* :class:`Profile` — a named rule subset; profiles are resolved per *path*
  (strict for the forwarding plane and the simulator, relaxed hygiene-only
  for cluster/benchmarks/tests) so one invocation can sweep a mixed tree.
* :class:`Linter` — drives rules over files, applies waivers, and returns a
  :class:`LintReport`.

Waiver syntax
-------------
A finding is suppressed by an in-source comment naming the rule **and** a
reason::

    started = time.perf_counter()  # lint: allow[RL002] host-time probe, reported only

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
    "ProjectRule",
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
    "LINT_VERSION",
]

#: Rule id used for linter-level findings (syntax errors, malformed waivers).
#: Deliberately not waivable: a broken waiver must not hide behind itself.
META_RULE_ID = "RL000"

#: Bumped whenever rule/summary semantics change; part of the cache key,
#: so a stale cache from an older linter is discarded, never reused.
LINT_VERSION = "4"


@dataclass(slots=True)
class Finding:
    """One rule violation at a source location.

    ``severity`` is ``"error"`` (gates the exit code) or ``"advisory"``
    (reported, never failing).  Interprocedural findings additionally
    carry ``chain``: the witness call path as a list of
    ``{"function", "path", "line"}`` hops ending at the sink.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    waived: bool = False
    waiver_reason: str = ""
    severity: str = "error"
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
            "severity": self.severity,
        }
        if self.chain is not None:
            document["chain"] = self.chain
        return document

    @classmethod
    def from_dict(cls, raw: dict) -> "Finding":
        return cls(
            rule=raw["rule"],
            path=raw["path"],
            line=raw["line"],
            col=raw["col"],
            message=raw["message"],
            waived=raw.get("waived", False),
            waiver_reason=raw.get("waiver_reason", ""),
            severity=raw.get("severity", "error"),
            chain=raw.get("chain"),
        )


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

    def as_dict(self) -> dict:
        return {
            "line": self.line,
            "rules": sorted(self.rules),
            "reason": self.reason,
            "standalone": self.standalone,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Waiver":
        return cls(
            line=raw["line"],
            rules=frozenset(raw["rules"]),
            reason=raw["reason"],
            standalone=raw["standalone"],
        )


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

    @classmethod
    def load(cls, path: "str | Path", display: Optional[str] = None) -> "SourceFile":
        text = Path(path).read_text(encoding="utf-8")
        return cls(display or str(path), text)

    def waiver_for(self, rule: str, line: int) -> Optional[Waiver]:
        for waiver in self.waivers:
            if waiver.target_line == line and waiver.covers(rule):
                return waiver
        return None


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
    #: Advisory rules report (under ``--show-advisory``) but never gate.
    advisory: bool = False
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


class ProjectRule(Rule):
    """A rule needing the whole scanned file set (cross-module tables)."""

    def check(self, module: SourceFile) -> Iterator[Finding]:
        return iter(())

    def check_project(self, modules: Sequence[SourceFile]) -> Iterator[Finding]:
        raise NotImplementedError


class SummaryRule(Rule):
    """A project rule that runs on module summaries and the call graph.

    Unlike :class:`ProjectRule`, a summary rule never needs an AST —
    warm-cache runs can drive it from deserialised summaries alone.
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
    """One module's cached-or-fresh lint state: the unit the driver holds.

    ``local_findings`` are the line-local rule results *before* waiver
    application (waivers are applied uniformly at report time, so cached
    and fresh records behave identically).  ``summary`` feeds the
    interprocedural layer; ``source`` is only retained for freshly parsed
    files, for legacy :class:`ProjectRule` instances that still need ASTs.
    """

    display: str
    path: str
    profile_name: str
    waivers: list[Waiver] = field(default_factory=list)
    parse_error: Optional[str] = None
    local_findings: list[Finding] = field(default_factory=list)
    summary: Optional[object] = None
    source: Optional[SourceFile] = None

    def waiver_for(self, rule: str, line: int) -> Optional[Waiver]:
        for waiver in self.waivers:
            if waiver.target_line == line and waiver.covers(rule):
                return waiver
        return None

    def as_dict(self) -> dict:
        return {
            "display": self.display,
            "path": self.path,
            "profile": self.profile_name,
            "waivers": [waiver.as_dict() for waiver in self.waivers],
            "parse_error": self.parse_error,
            "findings": [finding.as_dict() for finding in self.local_findings],
            "summary": self.summary.as_dict() if self.summary is not None else None,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ModuleRecord":
        from repro.analysis.lint.symbols import ModuleSummary

        summary = raw.get("summary")
        return cls(
            display=raw["display"],
            path=raw["path"],
            profile_name=raw["profile"],
            waivers=[Waiver.from_dict(w) for w in raw["waivers"]],
            parse_error=raw["parse_error"],
            local_findings=[Finding.from_dict(f) for f in raw["findings"]],
            summary=ModuleSummary.from_dict(summary) if summary is not None else None,
        )


@dataclass(frozen=True)
class Profile:
    """A named subset of the rule catalog."""

    name: str
    rule_ids: frozenset[str]

    def enables(self, rule: Rule) -> bool:
        return rule.id in self.rule_ids


_ALL_RULE_IDS = frozenset(
    {
        "RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007",
        "RL008", "RL009", "RL010", "RL011", "RL012", "RL013", "RL014",
    }
)

PROFILES: dict[str, Profile] = {
    #: Full catalog: the forwarding plane and simulator live here, but the
    #: invariant rules self-scope, so strict is safe for the whole of src/.
    "strict": Profile("strict", _ALL_RULE_IDS),
    #: Hygiene plus resource safety: exception discipline, mutable
    #: defaults, and leaked handles (RL014 applies "everywhere" by
    #: contract — a benchmark that leaks a pipe is as broken as the plane).
    "relaxed": Profile("relaxed", frozenset({"RL004", "RL005", "RL014"})),
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
        """Gating findings: unwaived errors (advisories never gate)."""
        return [
            finding
            for finding in self.findings
            if not finding.waived and finding.severity == "error"
        ]

    @property
    def waived(self) -> list[Finding]:
        return [finding for finding in self.findings if finding.waived]

    @property
    def advisories(self) -> list[Finding]:
        return [
            finding for finding in self.findings if finding.severity == "advisory"
        ]

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

        The result is ordered by normalised posix path — independent of
        input order, directory/file mixing, and filesystem enumeration —
        so reports (and therefore ``--baseline`` diffs) are bit-stable
        across runs and hosts.
        """
        out: list[Path] = []
        seen: set[Path] = set()
        for raw in paths:
            path = Path(raw)
            if path.is_dir():
                candidates = sorted(path.rglob("*.py"))
            else:
                candidates = [path]
            for candidate in candidates:
                parts = candidate.parts
                if "__pycache__" in parts or any(
                    part.startswith(".") and part not in (".", "..") for part in parts
                ):
                    continue
                resolved = candidate.resolve()
                if resolved not in seen:
                    seen.add(resolved)
                    out.append(candidate)
        out.sort(key=lambda p: norm_path(p))
        return out

    # ------------------------------------------------------------ records

    def config_signature(self) -> str:
        """Cache key component: everything but file content a record depends on."""
        from repro.analysis.lint.cache import config_signature

        return config_signature(
            [rule.id for rule in self.rules],
            LINT_VERSION,
            self.forced_profile,
            self.profile_map,
        )

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
            source=module,
        )
        if module.parse_error is not None:
            return record
        profile = PROFILES[profile_name]
        for rule in self.rules:
            if isinstance(rule, (ProjectRule, SummaryRule)):
                continue
            if profile.enables(rule) and rule.applies_to(module.path):
                for found in rule.check(module):
                    if not found.path:
                        found.path = module.display
                    record.local_findings.append(found)
        record.summary = summarize(module)
        return record

    # ------------------------------------------------------------ linting

    def lint_paths(
        self, paths: Iterable["str | Path"], cache=None
    ) -> LintReport:
        """Lint files/directories, optionally through a
        :class:`~repro.analysis.lint.cache.SummaryCache`."""
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
            if cache is not None:
                digest = cache.digest(text)
                cached = cache.get(norm_path(display), digest)
                if cached is not None:
                    records.append(ModuleRecord.from_dict(cached))
                    continue
                record = self._build_record(SourceFile(display, text))
                cache.put(norm_path(display), digest, record.as_dict())
            else:
                record = self._build_record(SourceFile(display, text))
            records.append(record)
        if cache is not None:
            cache.save()
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
        """Run legacy AST project rules and summary/call-graph rules."""
        summary_rules = [r for r in self.rules if isinstance(r, SummaryRule)]
        legacy_rules = [
            r
            for r in self.rules
            if isinstance(r, ProjectRule) and not isinstance(r, SummaryRule)
        ]
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
        for rule in legacy_rules:
            in_scope_sources = []
            for record in records:
                if record.parse_error is not None:
                    continue
                if not (
                    profile_of[record.path].enables(rule)
                    and rule.applies_to(record.path)
                ):
                    continue
                if record.source is None:  # cache hit: reload for the AST
                    try:
                        record.source = SourceFile.load(record.display)
                    except OSError:
                        continue
                in_scope_sources.append(record.source)
            if in_scope_sources:
                yield from rule.check_project(in_scope_sources)

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
