"""Layer-mix guard: each workload stresses the layers it was chosen for.

If a change to a workload's definition (or to the program) moved the
time into other layers, the workload would no longer measure what
BENCHMARK.json says it measures; these tests fail first.
"""

from __future__ import annotations

import pytest

from bench_helpers import WORKLOADS, value

SEED = 5
#: Self-time metrics of every layer the sweep calls into.
SELF_TIMES = (
    "landmarks.select_s", "probing.features_s", "coords.embed_s",
    "clustering.cluster_s", "core.self_s", "analysis.gicost_s",
    "simulator.busy_s",
)
FORMATION_LAYERS = (
    "coords.embed_s", "probing.features_s", "landmarks.select_s",
    "clustering.cluster_s",
)


def share(result: dict, names) -> float:
    total = sum(value(result, n) for n in SELF_TIMES)
    return sum(value(result, n) for n in names) / total


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_is_correct_and_covered(bench, workload):
    result, context = bench(workload, SEED, 1)
    assert result["correct"], context["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert value(result, "trace.coverage") >= 0.9
    assert "trace.overhead_s" in result["metrics"]


@pytest.mark.parametrize("workload", ["coop-sweep", "update-storm"])
def test_simulator_dominates_simulation_workloads(bench, workload):
    result, _ = bench(workload, SEED, 1)
    assert share(result, ["simulator.busy_s"]) > 0.5


def test_formation_layers_dominate_formation(bench):
    result, _ = bench("formation", SEED, 1)
    assert share(result, FORMATION_LAYERS) > 0.5
    assert value(result, "simulator.busy_s") == 0
    assert value(result, "simulator.events") == 0


def update_share(result: dict) -> float:
    updates = value(result, "workload.updates")
    return updates / (updates + value(result, "workload.requests"))


def test_update_storm_is_write_heavy(bench):
    result, _ = bench("update-storm", SEED, 1)
    assert update_share(result) >= 0.20


def test_coop_sweep_is_read_mostly(bench):
    result, _ = bench("coop-sweep", SEED, 1)
    assert update_share(result) < 0.02
