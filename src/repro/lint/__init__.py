"""``repro.lint`` — AST-based invariant linting for the repro codebase.

The runtime's headline guarantee (*parallel == serial, bit-identical*;
see ``docs/performance.md``) rests on codebase-wide conventions: all
randomness flows through explicit seeded ``numpy.random.Generator``
streams, simulator code reads simulated time only, scheduler work units
are module-level picklables, and nothing iterates filesystem listings
or sets in an order-sensitive way.  This package turns those
conventions into machine-checked invariants: a small checker framework
(:mod:`repro.lint.base`), six built-in checkers
(:mod:`repro.lint.checkers`), inline ``# repro-lint: allow[rule-id]``
suppressions, a grandfathering baseline (:mod:`repro.lint.baseline`),
and text/JSON reporters — all wired up as the ``repro lint`` CLI
subcommand (:mod:`repro.lint.cli`).

Library use::

    from pathlib import Path
    from repro.lint import lint_paths

    report = lint_paths([Path("src")])
    assert report.clean, [f.location for f in report.findings]
"""

from repro.lint.base import Checker, Rule
from repro.lint.baseline import Baseline
from repro.lint.checkers import (
    ForkSafetyChecker,
    IterationOrderChecker,
    MutableDefaultChecker,
    RngDisciplineChecker,
    SimulatedTimeChecker,
    SwallowedExceptionChecker,
    default_checkers,
    rule_catalog,
)
from repro.lint.findings import Finding, sort_findings
from repro.lint.project import PROJECT_RULES, ProjectModel
from repro.lint.reporters import render_json, render_text
from repro.lint.runner import (
    PARSE_ERROR,
    LintReport,
    iter_python_files,
    lint_paths,
    lint_source,
    lint_sources,
    project_rule_catalog,
)
from repro.lint.source import SourceFile
from repro.lint.units import (
    UNIT_RULES,
    UnitAnalysis,
    analyze_units,
    unit_findings,
    unit_report,
    unit_rule_catalog,
)

__all__ = [
    "Baseline",
    "Checker",
    "Finding",
    "ForkSafetyChecker",
    "IterationOrderChecker",
    "LintReport",
    "MutableDefaultChecker",
    "PARSE_ERROR",
    "PROJECT_RULES",
    "ProjectModel",
    "RngDisciplineChecker",
    "Rule",
    "SimulatedTimeChecker",
    "SourceFile",
    "SwallowedExceptionChecker",
    "UNIT_RULES",
    "UnitAnalysis",
    "analyze_units",
    "default_checkers",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "project_rule_catalog",
    "render_json",
    "render_text",
    "rule_catalog",
    "sort_findings",
    "unit_findings",
    "unit_report",
    "unit_rule_catalog",
]
