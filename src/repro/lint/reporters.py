"""Text and JSON renderings of a :class:`~repro.lint.runner.LintReport`.

Both formats list findings in the canonical order and end with the same
summary counts, so a CI log and a machine-read JSON artifact always
agree about what failed.  The JSON report also nests the run's
whole-program ``effects`` and ``units`` tables.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Union

from repro.lint.findings import Finding
from repro.lint.runner import LintReport


def _summary(report: LintReport) -> str:
    parts = [
        f"{len(report.findings)} finding"
        f"{'' if len(report.findings) == 1 else 's'}",
        f"{report.files_checked} files checked",
    ]
    if report.grandfathered:
        parts.insert(1, f"{len(report.grandfathered)} baselined")
    if report.suppressed:
        parts.insert(1, f"{report.suppressed} suppressed")
    return ", ".join(parts)


def render_text(report: LintReport, verbose: bool = False) -> str:
    """Human-readable report: one ``path:line: rule: message`` per line.

    ``verbose`` also lists grandfathered (baselined) findings, marked
    so they are not mistaken for build-failing ones.
    """
    lines: List[str] = []
    for finding in report.findings:
        lines.append(
            f"{finding.location}:{finding.col}: "
            f"{finding.rule_id}: {finding.message}"
        )
    if verbose:
        for finding in report.grandfathered:
            lines.append(
                f"{finding.location}:{finding.col}: "
                f"{finding.rule_id}: [baselined] {finding.message}"
            )
    lines.append(_summary(report))
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Machine-readable report (stable key order, trailing newline)."""

    def encode(findings: List[Finding]) -> List[Dict[str, Union[str, int]]]:
        return [finding.to_dict() for finding in findings]

    payload: Dict[str, Any] = {
        "clean": report.clean,
        "files_checked": report.files_checked,
        "suppressed": report.suppressed,
        "findings": encode(report.findings),
        "grandfathered": encode(report.grandfathered),
        "summary": _summary(report),
    }
    if report.effects is not None:
        payload["effects"] = report.effect_table()
    if report.units is not None:
        payload["units"] = report.unit_table()
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
