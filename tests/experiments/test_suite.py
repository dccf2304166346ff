"""Tests for the experiment suite runner."""

import json

import pytest

from repro.errors import ReproError
from repro.experiments import run_suite


class TestRunSuite:
    def test_selected_figures(self, tmp_path):
        run = run_suite(
            figures=["fig4"],
            output_dir=tmp_path / "out",
            repetitions=1,
        )
        assert set(run.results) == {"fig4"}
        assert (tmp_path / "out" / "fig4.json").exists()
        assert (tmp_path / "out" / "fig4.csv").exists()
        assert (tmp_path / "out" / "summary.md").exists()

    def test_summary_contains_tables(self, tmp_path):
        run = run_suite(
            figures=["fig4"], output_dir=tmp_path, repetitions=1
        )
        summary = (tmp_path / "summary.md").read_text()
        assert "## fig4" in summary
        assert "sl_ms" in summary

    def test_archived_json_loadable(self, tmp_path):
        from repro.persist import load_result

        run_suite(figures=["fig4"], output_dir=tmp_path, repetitions=1)
        loaded = load_result(tmp_path / "fig4.json")
        assert loaded.experiment_id == "fig4"

    def test_no_output_dir(self):
        run = run_suite(figures=["fig4"], repetitions=1)
        assert run.output_dir is None
        assert "fig4" in run.results

    def test_manifests_collected_and_archived(self, tmp_path):
        run = run_suite(
            figures=["fig4"], output_dir=tmp_path, repetitions=1, seed=9
        )
        manifest = run.manifests["fig4"]
        assert manifest.label == "fig4"
        assert manifest.seed == 9
        assert manifest.config == {"seed": 9, "repetitions": 1, "jobs": 1}
        # the figure phase plus the nested GF-Coordinator stages
        assert "fig4" in manifest.phase_timings_s
        assert any(
            name.startswith("fig4/landmarks")
            for name in manifest.phase_timings_s
        )
        path = tmp_path / "fig4.manifest.json"
        assert path.exists()
        payload = json.loads(path.read_text())
        assert payload["kind"] == "run_manifest"
        assert payload["label"] == "fig4"

    def test_fig7_phases_include_gnp(self):
        """GNP, most of fig7's wall time, runs under a named phase."""
        run = run_suite(figures=["fig7"], repetitions=1)
        assert "fig7/coords/gnp" in run.manifests["fig7"].phase_timings_s

    def test_unknown_figure_rejected(self):
        with pytest.raises(ReproError):
            run_suite(figures=["fig99"])

    def test_repetitions_skipped_for_fig3(self, tmp_path, monkeypatch):
        """fig3 takes no repetitions; the suite must not pass one."""
        calls = {}

        def fake_fig3(**kwargs):
            calls.update(kwargs)
            from repro.experiments import run_fig4

            return run_fig4(network_sizes=(10,), num_landmarks=4,
                            repetitions=1)

        from repro.experiments import registry

        monkeypatch.setitem(registry.REGISTRY, "fig3", fake_fig3)
        run_suite(figures=["fig3"], repetitions=5, seed=2)
        assert "repetitions" not in calls
        assert calls.get("seed") == 2
