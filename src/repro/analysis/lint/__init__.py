"""reprolint: project-specific static analysis for the repro codebase.

The runtime invariants this codebase depends on — transiting Data is never
decoded, simulation runs are bit-deterministic, hot-path entries are cheap
to hold, frame ledgers balance — are asserted dynamically by counters in
benches and soak tests, which only cover the code paths those suites happen
to exercise.  reprolint enforces the same contracts *statically*, on every
line, in the tier-1 suite.

The module-local rules (RL004-RL008) check each module in isolation.  The
interprocedural layer (RL009-RL012) builds a project symbol table
(:mod:`~repro.analysis.lint.symbols`), a conservative call graph
(:mod:`~repro.analysis.lint.callgraph`) and a per-function effect
fixpoint (:mod:`~repro.analysis.lint.effects`): each effect rule reports
a sink where it is written inside its scope, and at every boundary call
that reaches one from outside, with the witness chain on the finding.
RL012 reads the same index: an ``__all__`` export that nothing else in
the scanned tree references is a finding like any other.  Rule ids
RL001-RL003 and RL013-RL014 are retired, not reused.

Usage::

    python -m repro.analysis.lint src/            # strict/relaxed per path
    python -m repro.analysis.lint --list-rules    # the rule catalog
    python -m repro.analysis.lint src/ --format json --output report.json

Programmatic::

    from repro.analysis.lint import Linter
    report = Linter().lint_paths(["src"])
    assert report.ok, report.unwaived

See :mod:`repro.analysis.lint.rules` for the catalog and
:mod:`repro.analysis.lint.engine` for the waiver syntax.
"""

from repro.analysis.lint.engine import (
    DEFAULT_PROFILE_MAP,
    META_RULE_ID,
    PROFILES,
    Finding,
    Linter,
    LintReport,
    ModuleRecord,
    Profile,
    Rule,
    SourceFile,
    SummaryRule,
    Waiver,
    profile_for_path,
)
from repro.analysis.lint.report import JSON_SCHEMA_ID, render_json, render_text
from repro.analysis.lint.rules import default_rules

__all__ = [
    "DEFAULT_PROFILE_MAP",
    "META_RULE_ID",
    "PROFILES",
    "JSON_SCHEMA_ID",
    "Finding",
    "Linter",
    "LintReport",
    "ModuleRecord",
    "Profile",
    "Rule",
    "SourceFile",
    "SummaryRule",
    "Waiver",
    "profile_for_path",
    "render_json",
    "render_text",
    "default_rules",
]
