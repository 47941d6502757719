"""reprolint reporters: human text and machine JSON.

The JSON document is the machine-readable report; its schema is
versioned:

.. code-block:: json

    {
      "schema": "reprolint-report/4",
      "summary": {"files": 52, "findings": 9, "waived": 9,
                  "unwaived": 0, "ok": true,
                  "by_rule": {"RL010": 2}, "waived_by_rule": {"RL004": 3}},
      "findings": [{"rule": "RL010", "path": "...", "line": 10, "col": 4,
                    "message": "...", "waived": true,
                    "waiver_reason": "...",
                    "chain": [{"function": "...", "path": "...", "line": 1}]}]
    }

Every finding gates unless waived, so a finding carries no severity.
"""

from __future__ import annotations

import json

from repro.analysis.lint.engine import LintReport

__all__ = ["render_text", "render_json", "JSON_SCHEMA_ID"]

JSON_SCHEMA_ID = "reprolint-report/4"


def render_text(report: LintReport, show_waived: bool = False) -> str:
    """One ``path:line:col RLxxx message`` row per finding, plus a summary."""
    lines: list[str] = []
    for finding in report.findings:
        if finding.waived and not show_waived:
            continue
        suffix = f" (waived: {finding.waiver_reason})" if finding.waived else ""
        lines.append(
            f"{finding.path}:{finding.line}:{finding.col + 1} "
            f"{finding.rule} {finding.message}{suffix}"
        )
    unwaived = len(report.unwaived)
    waived = len(report.waived)
    lines.append(
        f"reprolint: {report.files_checked} files, "
        f"{unwaived} finding{'s' if unwaived != 1 else ''}"
        f" ({waived} waived)"
    )
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """The versioned machine-readable report."""
    document = {
        "schema": JSON_SCHEMA_ID,
        "summary": {
            "files": report.files_checked,
            "findings": len(report.findings),
            "waived": len(report.waived),
            "unwaived": len(report.unwaived),
            "ok": report.ok,
            "by_rule": report.by_rule(),
            "waived_by_rule": report.waived_by_rule(),
        },
        "findings": [finding.as_dict() for finding in report.findings],
    }
    return json.dumps(document, indent=2, sort_keys=False)

