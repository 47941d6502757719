"""``python -m repro.analysis.lint``: the reprolint command line.

Exit codes: 0 = clean (every finding waived with a reason), 1 = unwaived
findings, 2 = usage error.

Examples::

    python -m repro.analysis.lint src/
    python -m repro.analysis.lint src/ --format json --output reprolint.json
    python -m repro.analysis.lint --list-rules

Every run is cold: each file is parsed once, then the project phase (call
graph, effect fixpoint) runs over the summaries.  Nothing is written
except the ``--output`` file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.lint.engine import Linter
from repro.analysis.lint.report import render_json, render_text
from repro.analysis.lint.rules import default_rules

__all__ = ["main"]


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
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
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
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _list_rules() -> str:
    """The catalog with each rule's scope.

    Everything a reader previously had to dig out of the ROADMAP rule
    table: what each rule checks and where it applies.
    """
    lines = []
    for rule in default_rules():
        scopes = list(rule.scope_dirs) + list(rule.scope_files)
        scope = "all files" if not scopes else ", ".join(scopes)
        if rule.exclude_files:
            scope += f" (except {', '.join(rule.exclude_files)})"
        lines.append(f"{rule.id}  {rule.title}")
        lines.append(f"       {rule.rationale}")
        lines.append(f"       scope: {scope}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        print(_list_rules())
        return 0
    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        parser.error(f"no such path: {', '.join(missing)}")
    report = Linter().lint_paths(args.paths)
    if args.format == "json":
        rendered = render_json(report)
    else:
        rendered = render_text(report, show_waived=args.show_waived)
    if args.output is not None:
        args.output.write_text(rendered + "\n", encoding="utf-8")
        summary = render_text(report).splitlines()[-1]
        print(f"{summary} -> {args.output}")
    else:
        print(rendered)
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
