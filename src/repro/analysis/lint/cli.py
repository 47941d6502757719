"""``python -m repro.analysis.lint``: the reprolint command line.

Exit codes: 0 = clean (every finding waived with a reason), 1 = unwaived
findings (or, with ``--baseline``, *new* unwaived findings; or a blown
``--waiver-budget``), 2 = usage error.

Examples::

    python -m repro.analysis.lint src/
    python -m repro.analysis.lint src/ --format json --output reprolint.json
    python -m repro.analysis.lint benchmarks/ --profile relaxed
    python -m repro.analysis.lint src/ --changed-only --diff-base origin/main
    python -m repro.analysis.lint src/ --baseline main-report.json
    python -m repro.analysis.lint src/ --waiver-budget 3
    python -m repro.analysis.lint --list-rules

The per-module phase (parse, line-local rules, summary extraction) is
cached in ``.reprolint-cache.json`` keyed on content hash + rule
configuration; ``--no-cache`` bypasses it.  The project phase (call
graph, effect fixpoint) always runs fresh.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.lint.cache import SummaryCache
from repro.analysis.lint.engine import PROFILES, Linter
from repro.analysis.lint.report import (
    diff_reports,
    parse_json,
    render_json,
    render_sarif,
    render_text,
)
from repro.analysis.lint.rules import default_rules

__all__ = ["main"]

DEFAULT_CACHE_FILE = ".reprolint-cache.json"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="reprolint: static enforcement of the zero-copy, "
        "determinism and memory-hygiene contracts",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--profile", choices=sorted(PROFILES), default=None,
        help="force one profile for every path (default: per-path map — "
        "strict everywhere, relaxed for cluster/benchmarks/tests/examples)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text); sarif is the GitHub "
        "code-scanning upload format",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="write the report to a file instead of stdout",
    )
    parser.add_argument(
        "--show-waived", action="store_true",
        help="include waived findings in text output",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="skip the per-module summary cache (always re-parse)",
    )
    parser.add_argument(
        "--cache-file", type=Path, default=Path(DEFAULT_CACHE_FILE),
        help=f"summary cache location (default: {DEFAULT_CACHE_FILE})",
    )
    parser.add_argument(
        "--changed-only", action="store_true",
        help="report findings only in files changed vs --diff-base "
        "(git diff + untracked); every given path is still indexed",
    )
    parser.add_argument(
        "--diff-base", default="HEAD",
        help="git ref --changed-only diffs against (default: HEAD)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="prior JSON report to diff against: exit 1 only on findings "
        "not present in the baseline (the PR-gate mode)",
    )
    parser.add_argument(
        "--waiver-budget", type=int, default=None, metavar="N",
        help="fail (exit 1) when more than N findings are waived",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _list_rules() -> str:
    """The catalog with profile membership and scope.

    Everything a reader previously had to dig out of the ROADMAP rule
    table: which profiles enable the rule and where it applies.
    """
    lines = []
    for rule in default_rules():
        profiles = ", ".join(
            sorted(
                name for name, profile in PROFILES.items()
                if rule.id in profile.rule_ids
            )
        )
        scopes = list(rule.scope_dirs) + list(rule.scope_files)
        scope = "all files" if not scopes else ", ".join(scopes)
        if rule.exclude_files:
            scope += f" (except {', '.join(rule.exclude_files)})"
        lines.append(f"{rule.id}  {rule.title}")
        lines.append(f"       {rule.rationale}")
        lines.append(f"       profiles: {profiles or 'none'}")
        lines.append(f"       scope: {scope}")
    return "\n".join(lines)


def _git_lines(argv: list[str], cwd: Optional[Path]) -> Optional[list[str]]:
    """Non-empty stdout lines of one git command, or None if it fails."""
    try:
        proc = subprocess.run(
            argv,
            cwd=cwd,
            capture_output=True,
            text=True,
            check=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return [line.strip() for line in proc.stdout.splitlines() if line.strip()]


def _changed_files(base: str) -> Optional[set[Path]]:
    """Files changed vs ``base`` plus untracked, or None if git fails.

    Both listings run from the repository's top level, so their relative
    paths share one base wherever below it the linter was started.
    """
    top = _git_lines(["git", "rev-parse", "--show-toplevel"], None)
    if not top:
        return None
    root = Path(top[0])
    changed: set[Path] = set()
    for argv in (
        ["git", "diff", "--name-only", base, "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        lines = _git_lines(argv, root)
        if lines is None:
            return None
        changed.update((root / line).resolve() for line in lines)
    return changed


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        print(_list_rules())
        return 0
    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        parser.error(f"no such path: {', '.join(missing)}")
    baseline = None
    if args.baseline is not None:
        try:
            baseline = parse_json(args.baseline.read_text(encoding="utf-8"))
        except (OSError, ValueError, KeyError) as exc:
            parser.error(f"unreadable baseline {args.baseline}: {exc}")
    linter = Linter(profile=args.profile)
    changed: Optional[list[Path]] = None
    if args.changed_only:
        # Only the report is restricted: the project index still covers
        # every given path, so a chain through an unchanged helper, and a
        # use of an export from an unchanged module, stay visible.
        in_diff = _changed_files(args.diff_base)
        if in_diff is None:
            parser.error(
                f"--changed-only: git diff against {args.diff_base!r} failed "
                "(not a git checkout, or an unknown ref)"
            )
        changed = [
            path for path in linter.collect_files(args.paths)
            if path.resolve() in in_diff
        ]
        if not changed:
            print(f"reprolint: no files changed vs {args.diff_base}")
            return 0
    cache = None
    if not args.no_cache:
        cache = SummaryCache(args.cache_file, linter.config_signature())
    report = linter.lint_paths(args.paths, cache=cache)
    if changed is not None:
        shown = {str(path) for path in changed}
        report.findings = [f for f in report.findings if f.path in shown]
        report.files_checked = len(changed)
    if args.format == "json":
        rendered = render_json(report)
    elif args.format == "sarif":
        rendered = render_sarif(report, rules=linter.rules)
    else:
        rendered = render_text(report, show_waived=args.show_waived)
    if args.output is not None:
        args.output.write_text(rendered + "\n", encoding="utf-8")
        summary = render_text(report).splitlines()[-1]
        print(f"{summary} -> {args.output}")
    else:
        print(rendered)
    status = 0 if report.ok else 1
    if baseline is not None:
        new, preexisting = diff_reports(report, baseline)
        print(
            f"reprolint baseline: {len(new)} new, "
            f"{len(preexisting)} pre-existing"
        )
        for finding in new:
            print(
                f"  NEW {finding.path}:{finding.line} "
                f"{finding.rule} {finding.message}"
            )
        status = 1 if new else 0
    if args.waiver_budget is not None:
        waived = len(report.waived)
        if waived > args.waiver_budget:
            by_rule = ", ".join(
                f"{rule}: {count}"
                for rule, count in report.waived_by_rule().items()
            )
            print(
                f"reprolint: waiver budget exceeded — {waived} waived "
                f"> budget {args.waiver_budget} ({by_rule})"
            )
            status = 1
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
