"""The ``repro lint`` subcommand.

Exit codes: ``0`` — clean (no findings outside the baseline); ``1`` —
new findings; ``2`` — usage error (missing path or baseline).

One run gates and tabulates: ``repro lint --format json`` adds the
whole-program ``effects`` and ``units`` tables to the report (see
:mod:`repro.lint.effects` and :mod:`repro.lint.units`).

``repro lint effects|units [PATHS] [--function QUALNAME] [--format
json]`` runs the same lint and prints just one of those tables, as text
or JSON, optionally restricted to one function: every function's
effect class, reads/writes/IO and entry-point flags, or its parameter
and return units, plus the rules' findings.  A view always exits 0 —
the gate is the regular ``repro lint`` run — and its JSON is
byte-deterministic (sorted keys, canonical ordering), equal to the
report's ``effects`` / ``units`` key.

``--update-baseline`` rewrites the baseline and exits 0: the ratchet
workflow is *fix what you can, then re-baseline the remainder
deliberately* (the diff shows what was grandfathered, so it is
reviewable like any other change).  The rewrite replaces entries for
files that were actually linted, preserves entries for files outside
the linted paths, and prunes entries whose file no longer exists — see
:meth:`repro.lint.baseline.Baseline.merged_update`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, TextIO, Tuple, cast

from repro.lint.baseline import Baseline
from repro.lint.checkers import rule_catalog
from repro.lint.reporters import render_json, render_text
from repro.lint.runner import LintReport, lint_paths, project_rule_catalog

#: Baseline picked up automatically when present in the working tree.
DEFAULT_BASELINE = "lint_baseline.json"


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the ``lint`` arguments to an (sub)parser."""
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src); the first "
             "path may be the literal 'effects' or 'units' to dump the "
             "effect or unit table instead of gating",
    )
    parser.add_argument(
        "--function", metavar="QUALNAME", dest="effects_function",
        help="effects/units mode: restrict the table to one function "
             "(module:qualname, qualname, or bare name)",
    )
    parser.add_argument(
        "--format", choices=["text", "json"], default="text",
        dest="output_format", help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline", metavar="PATH",
        help=f"grandfathered-findings file "
             f"(default: {DEFAULT_BASELINE} when it exists)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to the current findings and exit 0",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="also list baselined findings in the text report",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print every rule id and summary, then exit",
    )


def _resolve_baseline(
    args: argparse.Namespace, stderr: TextIO
) -> Tuple[Optional[Baseline], Optional[Path], int]:
    """Returns (baseline, baseline_path, exit_code!=0 on usage error)."""
    if args.baseline is not None:
        path = Path(args.baseline)
        if not path.exists():
            if args.update_baseline:
                return None, path, 0
            print(f"error: baseline not found: {path}", file=stderr)
            return None, None, 2
        return Baseline.load(path), path, 0
    default = Path(DEFAULT_BASELINE)
    if default.exists():
        return Baseline.load(default), default, 0
    return None, default if args.update_baseline else None, 0


def run_lint(
    args: argparse.Namespace,
    stdout: Optional[TextIO] = None,
    stderr: Optional[TextIO] = None,
) -> int:
    """Execute ``repro lint`` for parsed ``args``; returns the exit code."""
    out: TextIO = stdout if stdout is not None else sys.stdout
    err: TextIO = stderr if stderr is not None else sys.stderr

    if args.list_rules:
        catalog = {**rule_catalog(), **project_rule_catalog()}
        width = max(len(rule_id) for rule_id in catalog)
        for rule_id in sorted(catalog):
            print(f"{rule_id.ljust(width)}  {catalog[rule_id]}", file=out)
        return 0

    view = args.paths[0] if args.paths and args.paths[0] in _VIEWS else None
    if view is None:
        baseline, baseline_path, code = _resolve_baseline(args, err)
        if code != 0:
            return code
        paths = [Path(p) for p in args.paths]
    else:
        baseline, baseline_path = None, None
        paths = [Path(p) for p in args.paths[1:] or ["src"]]
    try:
        report = lint_paths(paths, baseline=baseline)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=err)
        return 2

    if view is not None:
        tabulate, render_table = _VIEWS[view]
        table = tabulate(report, args.effects_function)
        if args.output_format == "json":
            out.write(json.dumps(table, indent=2, sort_keys=True) + "\n")
        else:
            render_table(table, out,
                         args.effects_function is not None or args.verbose)
        return 0

    if args.update_baseline:
        target = baseline_path if baseline_path is not None else Path(
            DEFAULT_BASELINE
        )
        previous = baseline if baseline is not None else Baseline()
        updated = previous.merged_update(
            report.all_findings, report.checked_files
        )
        updated.save(target)
        print(
            f"wrote {target} ({len(updated.entries)} grandfathered "
            f"path::rule entries)",
            file=out,
        )
        return 0

    if args.output_format == "json":
        out.write(render_json(report))
    else:
        print(render_text(report, verbose=args.verbose), file=out)
    return 0 if report.clean else 1


def _render_units_text(
    payload: Dict[str, object], out: TextIO, full: bool
) -> None:
    functions = cast(List[Dict[str, object]], payload["functions"])
    timed = [
        row for row in functions
        if row["returns"] != "dimensionless" or any(
            unit != "dimensionless"
            for unit in cast(Dict[str, str], row["params"]).values()
        )
    ]
    print(
        f"{len(functions)} functions analysed, "
        f"{len(timed)} carrying time units",
        file=out,
    )
    shown = functions if full else timed
    for row in shown:
        params = cast(Dict[str, str], row["params"])
        rendered = ", ".join(
            f"{name}: {unit}" for name, unit in params.items()
            if full or unit != "dimensionless"
        )
        print(
            f"  {row['function']}  ({rendered}) -> {row['returns']}",
            file=out,
        )
    hidden = len(functions) - len(shown)
    if hidden > 0:
        print(f"  ... and {hidden} dimensionless functions "
              f"(--verbose shows all)", file=out)
    _print_findings(payload, "unit", out)


def _print_findings(
    payload: Dict[str, object], noun: str, out: TextIO
) -> None:
    findings = cast(List[Dict[str, object]], payload["findings"])
    if not findings:
        print(f"no {noun} findings", file=out)
        return
    print(f"{len(findings)} {noun} finding(s):", file=out)
    for item in findings:
        print(
            f"  {item['path']}:{item['line']}: {item['rule']}: "
            f"{item['message']}",
            file=out,
        )


def _render_effects_text(
    payload: Dict[str, object], out: TextIO, full: bool
) -> None:
    functions = cast(List[Dict[str, object]], payload["functions"])
    globals_rows = cast(List[Dict[str, object]], payload["globals"])
    entries = cast(Dict[str, List[object]], payload["entry_points"])
    print(
        f"{len(functions)} functions analysed, "
        f"{len(globals_rows)} tracked globals, "
        f"{len(entries['tasks'])} task entries, "
        f"{len(entries['cache_builders'])} cache builders, "
        f"{len(entries['event_handlers'])} event handlers",
        file=out,
    )
    shown = 0
    for row in functions:
        flags = [
            flag for flag in ("task_entry", "task_reachable",
                              "cache_builder", "event_handler")
            if row[flag]
        ]
        interesting = row["effect"] != "pure" or flags
        if not (full or interesting):
            continue
        shown += 1
        detail = "".join(
            f" {label}={','.join(cast(List[str], row[field_name]))}"
            for label, field_name in (("reads", "reads"),
                                      ("writes", "writes"),
                                      ("io", "io"))
            if row[field_name]
        )
        suffix = f"  [{' '.join(flags)}]" if flags else ""
        print(
            f"  {row['function']}  ({row['effect']}){detail}{suffix}",
            file=out,
        )
    hidden = len(functions) - shown
    if hidden > 0:
        print(f"  ... and {hidden} pure, unflagged functions "
              f"(--verbose shows all)", file=out)
    if globals_rows:
        print("tracked globals:", file=out)
        for grow in globals_rows:
            merge = grow["merge_back"]
            note = f" merge-back: {merge}" if merge else ""
            print(
                f"  {grow['global']}  ({grow['kind']}, "
                f"{grow['path']}:{grow['line']}){note}",
                file=out,
            )
    _print_findings(payload, "effect", out)


#: ``repro lint <view>``: the report table each view prints, and its
#: text renderer.
_VIEWS = {
    "effects": (LintReport.effect_table, _render_effects_text),
    "units": (LintReport.unit_table, _render_units_text),
}
