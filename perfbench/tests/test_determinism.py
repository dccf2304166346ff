"""Determinism and output contract of the benchmark."""

from __future__ import annotations

import shutil

import pytest

from bench_helpers import BENCH_DIR, ROOT, WORKLOADS, run_bench, spec, value

SEED = 5
OTHER_SEED = 6


def exact_metrics(result: dict) -> dict:
    """Metrics that must repeat exactly: model outputs and counts."""
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] not in ("s", "1/s") and not name.startswith("trace.")
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_exactly(bench, workload):
    first, first_context = bench(workload, SEED, 1)
    done, second, second_context = run_bench(workload, SEED, 1)
    assert second is not None, done.stderr[-3000:]
    assert exact_metrics(first) == exact_metrics(second)
    assert first_context["inputs_sha256"] == second_context["inputs_sha256"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_changes_the_inputs(bench, workload):
    _, context = bench(workload, SEED, 1)
    _, other = bench(workload, OTHER_SEED, 1)
    assert context["inputs_sha256"] != other["inputs_sha256"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_name_every_metric_of_the_spec(bench, workload):
    timed, context = bench(workload, SEED, 0)
    traced, _ = bench(workload, SEED, 1)
    declared = spec()
    assert timed["correct"] and timed["failed"] == 0, context["failures"]
    for kind, result in (("end_to_end", timed), ("per_layer", traced)):
        assert set(result["metrics"]) == {m["name"] for m in declared[kind]}
        for metric in declared[kind]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    # The timed path and the step-by-step traced path score the same
    # groupings.
    assert context["model_gicost_ms"] == value(
        traced, "analysis.model_gicost_ms"
    )
    for key in ("seed", "git_commit", "nproc", "python", "numpy", "scipy",
                "thread_pins"):
        assert key in context
    assert set(context["thread_pins"].values()) == {"1"}


def test_fails_without_the_program(tmp_path):
    """Alone with its own files, the benchmark exits non-zero silently."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH_DIR, tmp_path / BENCH_DIR.name,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done, result, _ = run_bench("coop-sweep", SEED, 0, cwd=tmp_path)
    assert done.returncode != 0
    assert result is None and "correct" not in done.stdout
