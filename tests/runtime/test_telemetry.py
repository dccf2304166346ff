"""Worker telemetry: collector math, progress heartbeat, invariants.

The load-bearing contract: enabling ``worker_perf``/``progress``/the
run registry must leave every archived result byte-identical to a plain
serial run — telemetry observes the computation, it never joins it.
"""

from __future__ import annotations

import io
import subprocess
import sys

import pytest

from repro.experiments.fig6_num_landmarks import run_fig6
from repro.experiments.registry import REGISTRY
from repro.experiments.suite import run_suite
from repro.runtime import TaskScheduler, reset_cache, use_scheduler
from repro.runtime.scheduler import map_tasks, perf_hook, set_perf_hook
from repro.runtime.telemetry import PerfCollector, ProgressReporter


@pytest.fixture(autouse=True)
def fresh_cache():
    reset_cache()
    yield
    reset_cache()


@pytest.fixture(autouse=True)
def no_leaked_hook():
    yield
    assert perf_hook() is None, "a test leaked the scheduler perf hook"


def _small_fig6(**kwargs):
    kwargs.setdefault("num_caches", 40)
    kwargs.setdefault("landmark_counts", (4, 6))
    kwargs.setdefault("num_groups", 4)
    return run_fig6(**kwargs)


class TestPerfCollectorMath:
    def test_summary_reduces_synthetic_records(self):
        collector = PerfCollector(jobs=2)
        collector.on_map_begin(2)
        collector.record_task(
            0,
            {"wall_s": 1.0, "queue_wait_s": 0.1, "events": 100},
            {"hits": 2, "misses": 1},
        )
        collector.record_task(
            1,
            {"wall_s": 3.0, "queue_wait_s": 0.3, "events": 300},
            {"hits": 0, "misses": 0, "disk_hits": 1},
        )
        collector.on_map_end(2.5)
        summary = collector.summary()
        assert summary["worker_jobs"] == 2.0
        assert summary["worker_tasks"] == 2.0
        assert summary["worker_busy_s"] == pytest.approx(4.0)
        assert summary["worker_span_s"] == pytest.approx(2.5)
        assert summary["worker_task_mean_s"] == pytest.approx(2.0)
        assert summary["worker_task_max_s"] == pytest.approx(3.0)
        assert summary["worker_straggler_ratio"] == pytest.approx(1.5)
        # busy / (jobs * span) = 4 / 5
        assert summary["worker_utilization"] == pytest.approx(0.8)
        assert summary["worker_queue_wait_mean_s"] == pytest.approx(0.2)
        assert summary["worker_queue_wait_max_s"] == pytest.approx(0.3)
        assert summary["worker_events"] == 400.0
        assert summary["worker_events_per_sec"] == pytest.approx(160.0)
        assert summary["worker_cache_hits"] == 2.0
        assert summary["worker_cache_misses"] == 1.0
        assert summary["worker_cache_disk_hits"] == 1.0

    def test_empty_collector_yields_zeroes(self):
        summary = PerfCollector(jobs=4).summary()
        assert summary["worker_tasks"] == 0.0
        assert summary["worker_utilization"] == 0.0
        assert summary["worker_straggler_ratio"] == 0.0

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            PerfCollector(jobs=0)

    def test_retries_and_timeouts_flow_into_the_summary(self):
        collector = PerfCollector(jobs=2)
        collector.record_retry(0, kind="crash")
        collector.record_retry(1, kind="crash")
        collector.record_retry(2, kind="timeout")
        summary = collector.summary()
        assert summary["worker_retries"] == 2.0
        assert summary["worker_timeouts"] == 1.0

    def test_clean_runs_report_zero_retries(self):
        summary = PerfCollector(jobs=2).summary()
        assert summary["worker_retries"] == 0.0
        assert summary["worker_timeouts"] == 0.0

    def test_stragglers_names_outlier_task_indices(self):
        collector = PerfCollector(jobs=4)
        collector.on_map_begin(5)
        for index in range(4):
            collector.record_task(index, {"wall_s": 1.0}, None)
        collector.record_task(4, {"wall_s": 50.0}, None)
        # mean = 10.8; only the 50s task crosses 4x the mean.
        assert collector.stragglers() == [4]
        assert collector.stragglers(wall_ratio=1.0) == [4]
        assert PerfCollector(jobs=2).stragglers() == []
        with pytest.raises(ValueError):
            collector.stragglers(wall_ratio=0.0)


class TestProgressReporter:
    def test_reports_progress_and_final_line(self):
        stream = io.StringIO()
        reporter = ProgressReporter(
            label="fig6", stream=stream, interval_s=0.0
        )
        reporter.update(1, 3, events=500)
        reporter.update(3, 3, events=1500)
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 2
        assert "fig6" in lines[0]
        assert "1/3" in lines[0]
        assert "3/3" in lines[1] and "100%" in lines[1]
        assert "events/s" in lines[1]

    def test_throttles_between_emissions(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream, interval_s=3600.0)
        for done in range(1, 5):
            reporter.update(done, 10, events=0)
        # Only the first update lands; the rest fall inside the window
        # (and none is the final task).
        assert len(stream.getvalue().strip().splitlines()) == 1


def _square(x):
    return x * x


class TestSchedulerIntegration:
    def _collect(self, jobs):
        collector = PerfCollector(jobs=jobs)
        previous = set_perf_hook(collector)
        try:
            with TaskScheduler(jobs) as sched, use_scheduler(sched):
                values = map_tasks(_square, [1, 2, 3, 4])
        finally:
            set_perf_hook(previous)
        assert values == [1, 4, 9, 16]
        return collector.summary()

    def test_inline_map_records_every_task(self):
        summary = self._collect(jobs=1)
        assert summary["worker_tasks"] == 4.0
        assert summary["worker_queue_wait_max_s"] == 0.0
        assert summary["worker_span_s"] > 0.0

    def test_pool_map_records_every_task(self):
        summary = self._collect(jobs=2)
        assert summary["worker_tasks"] == 4.0
        assert summary["worker_jobs"] == 2.0
        # Worker pickup necessarily happens after parent submission.
        assert summary["worker_queue_wait_mean_s"] >= 0.0
        assert summary["worker_span_s"] > 0.0

    def test_hook_restored_after_run_figure(self):
        from repro.experiments.suite import run_figure

        sentinel = object()
        previous = set_perf_hook(sentinel)
        try:
            run_figure(
                "fig3",
                {"num_caches": 20, "group_sizes": (5,)},
                worker_perf=True,
            )
            assert perf_hook() is sentinel
        finally:
            set_perf_hook(previous)


class TestTelemetryTransparency:
    def test_archives_identical_with_full_telemetry_enabled(
        self, tmp_path, monkeypatch
    ):
        """jobs=4 + worker-perf + progress + registry == plain serial."""
        monkeypatch.setitem(REGISTRY, "fig6", _small_fig6)
        monkeypatch.setattr(sys, "stderr", io.StringIO())

        plain_dir = tmp_path / "plain"
        run_suite(
            figures=["fig6"], output_dir=plain_dir,
            repetitions=1, seed=19, jobs=1,
        )
        reset_cache()
        telemetry_dir = tmp_path / "telemetry"
        run = run_suite(
            figures=["fig6"], output_dir=telemetry_dir,
            repetitions=1, seed=19, jobs=4,
            worker_perf=True, progress=True,
            registry_dir=tmp_path / "registry",
        )
        for name in ("fig6.json", "fig6.csv"):
            assert (
                (plain_dir / name).read_bytes()
                == (telemetry_dir / name).read_bytes()
            ), f"{name} differs once telemetry is enabled"
        summary = run.manifests["fig6"].run_stats
        assert summary["worker_jobs"] == 4.0
        assert summary["worker_tasks"] > 0.0

    def test_suite_appends_manifests_to_registry(self, tmp_path, monkeypatch):
        from repro.obs.registry import RunRegistry

        monkeypatch.setitem(REGISTRY, "fig6", _small_fig6)
        run_suite(
            figures=["fig6"], repetitions=1, seed=19,
            registry_dir=tmp_path / "registry",
        )
        records = RunRegistry(tmp_path / "registry").records()
        assert [r.label for r in records] == ["fig6"]
        assert records[0].kind == "experiment"

    def test_sanitize_diff_clean_under_telemetry(self, tmp_path, monkeypatch):
        """The draw ledger is unperturbed by the perf hook."""
        from repro.sanitize.cli import run_sanitize
        from repro.cli import build_parser

        monkeypatch.setitem(REGISTRY, "fig6", _small_fig6)
        parser = build_parser()
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"

        collector = PerfCollector(jobs=1)
        previous = set_perf_hook(collector)
        try:
            args = parser.parse_args([
                "sanitize", "run", "--figure", "fig6",
                "--repetitions", "1", "--out", str(serial),
            ])
            assert run_sanitize(args, stdout=io.StringIO()) == 0
        finally:
            set_perf_hook(previous)
        reset_cache()

        collector = PerfCollector(jobs=4)
        previous = set_perf_hook(collector)
        try:
            args = parser.parse_args([
                "sanitize", "run", "--figure", "fig6",
                "--repetitions", "1", "--jobs", "4", "--out", str(parallel),
            ])
            assert run_sanitize(args, stdout=io.StringIO()) == 0
        finally:
            set_perf_hook(previous)

        args = parser.parse_args([
            "sanitize", "diff", str(serial), str(parallel),
        ])
        assert run_sanitize(args, stdout=io.StringIO()) == 0
        assert collector.summary()["worker_tasks"] > 0.0


_PROBE = """
import sys
from repro.experiments.suite import run_suite
from repro.experiments.fig6_num_landmarks import run_fig6
from repro.experiments.registry import REGISTRY

def small(**kwargs):
    kwargs.setdefault("num_caches", 30)
    kwargs.setdefault("landmark_counts", (4,))
    kwargs.setdefault("num_groups", 3)
    return run_fig6(**kwargs)

REGISTRY["fig6"] = small
run_suite(figures=["fig6"], repetitions=1, seed=5, jobs=2)
for forbidden in ("repro.runtime.telemetry", "repro.obs.registry"):
    assert forbidden not in sys.modules, f"hot path imported {forbidden}"
print("clean")
"""


class TestZeroCostDisabled:
    def test_disabled_telemetry_imports_nothing(self):
        """A plain suite run must never load the new subsystems."""
        import os
        from pathlib import Path

        proc = subprocess.run(
            [sys.executable, "-c", _PROBE],
            capture_output=True, text=True, timeout=600,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=str(Path(__file__).resolve().parents[2]),
        )
        assert proc.returncode == 0, proc.stderr
        assert "clean" in proc.stdout
