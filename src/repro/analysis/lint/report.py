"""reprolint reporters: human text, machine JSON, and baseline diffing.

The JSON document is the CI artifact format; its schema is versioned and
round-tripped by the self-test suite:

.. code-block:: json

    {
      "schema": "reprolint-report/3",
      "profiles": {"strict": 40, "relaxed": 12},
      "summary": {"files": 52, "findings": 9, "waived": 9,
                  "unwaived": 0, "ok": true,
                  "by_rule": {"RL010": 2}, "waived_by_rule": {"RL004": 3}},
      "findings": [{"rule": "RL010", "path": "...", "line": 10, "col": 4,
                    "message": "...", "waived": true,
                    "waiver_reason": "...",
                    "chain": [{"function": "...", "path": "...", "line": 1}]}]
    }

Schema ``/3`` drops ``/2``'s per-finding ``severity`` and its summary
count of non-gating findings: every finding gates unless waived.  ``/1``
and ``/2`` documents (a baseline written by an older linter) still
parse; their ``severity`` field is ignored, so each row is an ordinary
finding there.

:func:`diff_reports` is the PR-gate primitive: given the current report
and a baseline (typically main), it splits unwaived findings into
*new* and *pre-existing* by matching on ``(rule, path, message)`` as a
multiset — line numbers are deliberately excluded so unrelated edits
that shift a finding a few lines do not resurrect it as "new".
"""

from __future__ import annotations

import json
from collections import Counter

from repro.analysis.lint.engine import Finding, LintReport

__all__ = [
    "render_text",
    "render_json",
    "render_sarif",
    "parse_json",
    "diff_reports",
    "JSON_SCHEMA_ID",
    "SARIF_SCHEMA_URI",
]

JSON_SCHEMA_ID = "reprolint-report/3"

SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: Schemas :func:`parse_json` accepts (older baselines must keep parsing).
_ACCEPTED_SCHEMAS = ("reprolint-report/1", "reprolint-report/2", JSON_SCHEMA_ID)


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
    """The versioned machine-readable report (the CI artifact)."""
    document = {
        "schema": JSON_SCHEMA_ID,
        "profiles": dict(sorted(report.profiles_used.items())),
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


def _sarif_location(path: str, line: int, col: int = 0,
                    message: "str | None" = None) -> dict:
    location = {
        "physicalLocation": {
            "artifactLocation": {"uri": path.replace("\\", "/").lstrip("/")},
            "region": {"startLine": max(line, 1), "startColumn": col + 1},
        }
    }
    if message is not None:
        location["message"] = {"text": message}
    return location


def render_sarif(report: LintReport, rules=None) -> str:
    """SARIF 2.1.0 — the GitHub code-scanning upload format.

    Rule metadata comes from ``rules`` (default: the full catalog), so
    every catalog rule appears in ``tool.driver.rules`` even when it
    found nothing.  Witness chains map to ``codeFlows``/``threadFlows``
    — the structure code-scanning renders as a step-through path — and
    waived findings carry an ``inSource`` suppression, so they annotate
    without alerting.
    """
    from repro.analysis.lint.engine import LINT_VERSION

    if rules is None:
        from repro.analysis.lint.rules import default_rules

        rules = default_rules()
    rule_index = {rule.id: position for position, rule in enumerate(rules)}
    descriptors = [
        {
            "id": rule.id,
            "name": rule.title,
            "shortDescription": {"text": rule.title},
            "fullDescription": {"text": rule.rationale},
            "defaultConfiguration": {"level": "error"},
        }
        for rule in rules
    ]
    results = []
    for finding in report.findings:
        result = {
            "ruleId": finding.rule,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                _sarif_location(finding.path, finding.line, finding.col)
            ],
        }
        if finding.rule in rule_index:
            result["ruleIndex"] = rule_index[finding.rule]
        if finding.waived:
            result["suppressions"] = [
                {"kind": "inSource", "justification": finding.waiver_reason}
            ]
        if finding.chain:
            result["codeFlows"] = [
                {
                    "threadFlows": [
                        {
                            "locations": [
                                {
                                    "location": _sarif_location(
                                        hop.get("path") or finding.path,
                                        hop.get("line") or 1,
                                        message=hop.get("function", ""),
                                    )
                                }
                                for hop in finding.chain
                            ]
                        }
                    ]
                }
            ]
        results.append(result)
    document = {
        "$schema": SARIF_SCHEMA_URI,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "reprolint",
                        "version": LINT_VERSION,
                        "rules": descriptors,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=False)


def parse_json(text: str) -> LintReport:
    """Rebuild a :class:`LintReport` from :func:`render_json` output."""
    document = json.loads(text)
    schema = document.get("schema")
    if schema not in _ACCEPTED_SCHEMAS:
        raise ValueError(f"unsupported report schema {schema!r}")
    report = LintReport(
        findings=[Finding.from_dict(raw) for raw in document["findings"]],
        files_checked=document["summary"]["files"],
        profiles_used=dict(document.get("profiles", {})),
    )
    return report


def _diff_key(finding: Finding) -> tuple[str, str, str]:
    return (finding.rule, finding.path, finding.message)


def diff_reports(
    current: LintReport, baseline: LintReport
) -> tuple[list[Finding], list[Finding]]:
    """Split current unwaived findings into (new, pre-existing).

    Matching is a multiset over ``(rule, path, message)``: each baseline
    occurrence absorbs at most one current occurrence, so a second copy
    of a known violation still counts as new.
    """
    budget = Counter(_diff_key(f) for f in baseline.unwaived)
    new: list[Finding] = []
    preexisting: list[Finding] = []
    for finding in current.unwaived:
        key = _diff_key(finding)
        if budget[key] > 0:
            budget[key] -= 1
            preexisting.append(finding)
        else:
            new.append(finding)
    return new, preexisting
