"""Shared fixture: one ``repro lint`` run checked against its views."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint.project import ProjectModel


@pytest.fixture
def lint_tree(monkeypatch):
    """The directory ``single_run`` lints ``src`` under: the repository
    (a test module overrides it with its fixture tree)."""
    root = Path(__file__).resolve().parents[2]
    monkeypatch.chdir(root)
    return root


@pytest.fixture
def single_run(lint_tree, monkeypatch, capsys):
    """Lint ``src`` under ``lint_tree`` once, as JSON.

    Asserts that the run built the project model exactly once, and that
    the report's ``effects`` / ``units`` keys print exactly as
    ``repro lint effects|units --format json`` does; returns the parsed
    report.
    """
    builds = []
    build = ProjectModel.build.__func__

    def counting_build(cls, sources):
        builds.append(cls)
        return build(cls, sources)

    monkeypatch.setattr(ProjectModel, "build", classmethod(counting_build))
    main(["lint", "src", "--format", "json"])
    assert len(builds) == 1
    report = json.loads(capsys.readouterr().out)
    for view in ("effects", "units"):
        assert main(["lint", view, "src", "--format", "json"]) == 0
        assert capsys.readouterr().out == (
            json.dumps(report[view], indent=2, sort_keys=True) + "\n"
        )
    return report
