"""Determinism guarantees of the runtime layer.

The contract the performance work rides on: parallel fan-out, testbed
caching, and the engine's sorted fast path are all *pure reshufflings*
of the same computation — every one must produce bit-identical results
to the plain serial path.
"""

import numpy as np
import pytest

from repro.experiments.base import build_testbed
from repro.experiments.fig6_num_landmarks import run_fig6
from repro.experiments.fig8_sdsl_vs_sl_size import run_fig8
from repro.experiments.suite import run_suite
from repro.experiments.registry import REGISTRY
from repro.runtime import (
    TaskScheduler,
    configure_cache,
    reset_cache,
    use_scheduler,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    reset_cache()
    yield
    reset_cache()


def _small_fig6(**kwargs):
    kwargs.setdefault("num_caches", 40)
    kwargs.setdefault("landmark_counts", (4, 6))
    kwargs.setdefault("num_groups", 4)
    return run_fig6(**kwargs)


class TestParallelBitIdentity:
    def test_fig6_jobs4_identical_to_serial(self):
        serial = _small_fig6(repetitions=2)
        reset_cache()
        with TaskScheduler(4) as scheduler, use_scheduler(scheduler):
            parallel = _small_fig6(repetitions=2)
        # Dataclass equality compares every float exactly — any
        # re-ordering of rng streams or accumulation would show up here.
        assert parallel == serial

    def test_fig8_jobs2_identical_to_serial(self):
        kwargs = dict(
            network_sizes=(30, 40), num_landmarks=6, repetitions=1
        )
        serial = run_fig8(**kwargs)
        reset_cache()
        with TaskScheduler(2) as scheduler, use_scheduler(scheduler):
            parallel = run_fig8(**kwargs)
        assert parallel == serial

    def test_suite_archives_are_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setitem(REGISTRY, "fig6", _small_fig6)

        serial_dir = tmp_path / "serial"
        run_suite(
            figures=["fig6"], output_dir=serial_dir,
            repetitions=1, seed=19, jobs=1,
        )
        reset_cache()
        parallel_dir = tmp_path / "parallel"
        run_suite(
            figures=["fig6"], output_dir=parallel_dir,
            repetitions=1, seed=19, jobs=4,
        )
        for name in ("fig6.json", "fig6.csv"):
            assert (
                (serial_dir / name).read_bytes()
                == (parallel_dir / name).read_bytes()
            ), f"{name} differs between jobs=1 and jobs=4"


class TestCacheTransparency:
    def test_disk_hit_equals_rebuild(self, tmp_path):
        configure_cache(disk_dir=tmp_path)
        built = build_testbed(30, 7)

        # New process-wide cache, same disk dir: the testbed comes back
        # from the pickle store instead of being rebuilt.
        reset_cache()
        configure_cache(disk_dir=tmp_path)
        loaded = build_testbed(30, 7)
        assert get_stats()["disk_hits"] == 1

        assert np.array_equal(
            built.network.distances.as_array(),
            loaded.network.distances.as_array(),
        )
        assert built.workload.requests == loaded.workload.requests

        # And it behaves identically downstream.
        from repro.core.groups import single_group
        from repro.experiments.base import run_simulation

        grouping = single_group(built.network.cache_nodes)
        fresh_run = run_simulation(built, grouping)
        cached_run = run_simulation(loaded, grouping)
        assert (
            fresh_run.average_latency_ms() == cached_run.average_latency_ms()
        )

    def test_memory_hit_is_same_object(self):
        assert build_testbed(30, 7) is build_testbed(30, 7)


def get_stats():
    from repro.runtime import get_cache

    return get_cache().stats()


class TestEngineFastPath:
    def test_batched_loop_matches_heap_loop(self):
        from repro.core.groups import single_group
        from repro.simulator.runner import simulate

        testbed = build_testbed(25, 3, requests_per_cache=40)
        grouping = single_group(testbed.network.cache_nodes)
        fast = simulate(
            testbed.network, grouping, testbed.workload,
            event_loop="batched",
        )
        slow = simulate(
            testbed.network, grouping, testbed.workload,
            event_loop="heap",
        )
        assert fast.average_latency_ms() == slow.average_latency_ms()
        assert fast.hit_rates() == slow.hit_rates()
        assert (
            fast.metrics.latency_p95_ms() == slow.metrics.latency_p95_ms()
        )
