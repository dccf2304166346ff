"""Bit-identity of the ``"batched"`` event loop against the reference.

The batched columnar loop (:mod:`repro.simulator.batched`) is a pure
performance rewrite: every metric, trace record, sample, archived
figure byte, and sanitize-ledger digest must equal the ``"heap"``
reference loop's (:mod:`repro.simulator.reference`) exactly — not
approximately.  These tests pin that contract
across replacement policies, protocol modes, consistency modes,
failures, and partitions, and through the figure/ sanitize layers that
consume the engine.
"""

import json

import pytest

from repro.config import (
    CacheConfig,
    DocumentConfig,
    SimulationConfig,
    WorkloadConfig,
)
from repro.core.groups import GroupingResult, groups_from_labels
from repro.faults.schedule import FaultSchedule, PartitionSpec
from repro.obs import MetricsSampler, Observer, TraceCollector
from repro.sanitize import diff_ledgers, sanitize
from repro.simulator import CacheFailEvent, CacheRecoverEvent, simulate
from repro.topology import build_network
from repro.workload import generate_workload

LOOPS = ("heap", "batched")


@pytest.fixture(scope="module")
def testbed():
    network = build_network(num_caches=20, seed=31)
    workload = generate_workload(
        network.cache_nodes,
        WorkloadConfig(
            documents=DocumentConfig(
                num_documents=120, dynamic_fraction=0.5
            ),
            requests_per_cache=150,
        ),
        seed=31,
    )
    nodes = network.cache_nodes
    grouping = GroupingResult(
        scheme="test",
        groups=groups_from_labels(nodes, [n % 4 for n in nodes]),
    )
    return network, workload, grouping


def faults_for(network, workload):
    horizon = workload.horizon_ms
    nodes = network.cache_nodes
    failures = (
        CacheFailEvent(horizon * 0.2, nodes[4]),
        CacheRecoverEvent(horizon * 0.7, nodes[4]),
    )
    faults = FaultSchedule(
        crashes=((horizon * 0.3, nodes[7]),),
        recoveries=((horizon * 0.8, nodes[7]),),
        partitions=(
            PartitionSpec(
                horizon * 0.4, horizon * 0.6, nodes=tuple(nodes[:6])
            ),
        ),
    )
    return failures, faults


def fingerprint(result):
    """Canonical JSON of every number a run produces (reprs keep bits)."""
    metrics = result.metrics
    rows = []
    for node in metrics.cache_nodes():
        stats = metrics.cache_stats(node)
        latency = stats.latency
        rows.append([
            node, stats.local_hits, stats.group_hits,
            stats.origin_fetches, stats.query_messages, stats.peer_bytes,
            stats.origin_bytes, stats.invalidations_received,
            stats.stale_serves, stats.placement_skips,
            stats.requests_while_down, stats.partition_timeouts,
            repr(latency.mean), repr(latency.variance),
            repr(latency.minimum), repr(latency.maximum), latency.count,
        ])
    rows.append([
        metrics.warmup_skipped,
        metrics.invalidation_messages,
        repr(metrics.latency_p95_ms()),
        repr(
            metrics.average_latency_ms()
            if metrics.total_requests()
            else None
        ),
    ])
    return json.dumps(rows)


ALL_CONFIGS = [
    pytest.param(SimulationConfig(), id="default"),
    pytest.param(
        SimulationConfig(consistency_mode="ttl", ttl_ms=1_500.0),
        id="ttl",
    ),
    pytest.param(
        SimulationConfig(
            cache=CacheConfig(
                cooperative_placement=True,
                placement_rtt_threshold_ms=15.0,
            )
        ),
        id="coop-placement",
    ),
    pytest.param(
        SimulationConfig(
            origin_queueing=True, origin_capacity_rps=150.0
        ),
        id="origin-queueing",
    ),
    pytest.param(
        SimulationConfig(cache=CacheConfig(replacement_policy="lru")),
        id="lru",
    ),
    pytest.param(
        SimulationConfig(cache=CacheConfig(replacement_policy="lfu")),
        id="lfu",
    ),
]


class TestMetricsEquivalence:
    @pytest.mark.parametrize("config", ALL_CONFIGS)
    def test_plain(self, testbed, config):
        network, workload, grouping = testbed
        prints = {
            loop: fingerprint(
                simulate(
                    network, grouping, workload, config, event_loop=loop
                )
            )
            for loop in LOOPS
        }
        assert prints["batched"] == prints["heap"]

    @pytest.mark.parametrize("config", ALL_CONFIGS)
    def test_with_failures_and_partitions(self, testbed, config):
        network, workload, grouping = testbed
        failures, faults = faults_for(network, workload)
        prints = {
            loop: fingerprint(
                simulate(
                    network, grouping, workload, config,
                    failures=failures, faults=faults, event_loop=loop,
                )
            )
            for loop in LOOPS
        }
        assert prints["batched"] == prints["heap"]

    @pytest.mark.parametrize(
        "mode", ["beacon", "directory", "multicast"]
    )
    def test_protocol_modes(self, testbed, mode):
        network, workload, grouping = testbed
        prints = {
            loop: fingerprint(
                simulate(
                    network, grouping, workload,
                    group_protocol_mode=mode, event_loop=loop,
                )
            )
            for loop in LOOPS
        }
        assert prints["batched"] == prints["heap"]

    @pytest.mark.parametrize(
        "mode", ["beacon", "directory", "multicast"]
    )
    def test_protocol_modes_with_failures_and_partitions(
        self, testbed, mode
    ):
        # Down and cut-off beacons and holders take the kernel's
        # degraded lookup in every mode.
        network, workload, grouping = testbed
        failures, faults = faults_for(network, workload)
        prints = {
            loop: fingerprint(
                simulate(
                    network, grouping, workload,
                    SimulationConfig(consistency_mode="ttl", ttl_ms=800.0),
                    group_protocol_mode=mode, failures=failures,
                    faults=faults, event_loop=loop,
                )
            )
            for loop in LOOPS
        }
        assert prints["batched"] == prints["heap"]

    def test_batched_is_the_default(self, testbed):
        from repro.simulator.engine import DEFAULT_EVENT_LOOP

        assert DEFAULT_EVENT_LOOP == "batched"
        network, workload, grouping = testbed
        default = fingerprint(simulate(network, grouping, workload))
        explicit = fingerprint(
            simulate(network, grouping, workload, event_loop="batched")
        )
        assert default == explicit

    def test_unknown_loop_rejected(self, testbed):
        from repro.errors import SimulationError

        network, workload, grouping = testbed
        # "sorted" must be rejected, not aliased to another loop.
        for name in ("vectorised", "sorted"):
            with pytest.raises(
                SimulationError, match="unknown event loop"
            ):
                simulate(network, grouping, workload, event_loop=name)


class TestSlicePlan:
    def test_slices_cover_requests_in_order(self):
        from repro.simulator.batched import _plan_slices

        barriers = ("b0", "b1", "b2")
        slices = list(_plan_slices([2, 2, 7], barriers, 9, warmup=4))
        assert slices == [
            (0, 2, False, "b0"),
            (2, 2, False, "b1"),
            (2, 4, False, None),
            (4, 7, True, "b2"),
            (7, 9, True, None),
        ]


class TestInstrumentedEquivalence:
    def run(self, testbed, loop, capacity=None):
        network, workload, grouping = testbed
        trace = (
            TraceCollector(capacity=capacity)
            if capacity
            else TraceCollector()
        )
        observer = Observer(
            trace=trace, sampler=MetricsSampler(interval_ms=500.0)
        )
        result = simulate(
            network, grouping, workload,
            observer=observer, event_loop=loop,
        )
        return result, trace

    @pytest.mark.parametrize("capacity", [None, 300])
    def test_trace_jsonl_is_byte_identical(
        self, testbed, tmp_path, capacity
    ):
        paths = {}
        for loop in LOOPS:
            _, trace = self.run(testbed, loop, capacity=capacity)
            paths[loop] = tmp_path / f"{loop}-{capacity}.jsonl"
            trace.write_jsonl(paths[loop])
        assert (
            paths["heap"].read_bytes() == paths["batched"].read_bytes()
        )

    def test_sampled_series_is_identical(self, testbed):
        series = {}
        for loop in LOOPS:
            result, _ = self.run(testbed, loop)
            series[loop] = json.dumps(
                result.timeseries().to_dict(), sort_keys=True
            )
        assert series["heap"] == series["batched"]


class TestFigureArchive:
    """The figure layer on top of the engine archives identical bytes."""

    def archive(self, tmp_path, monkeypatch, loop):
        import repro.simulator.engine as engine_module
        from repro.experiments import run_fig3
        from repro.persist import save_result

        monkeypatch.setattr(engine_module, "DEFAULT_EVENT_LOOP", loop)
        result = run_fig3(
            num_caches=16, group_sizes=(1, 4, 16), subset_count=3, seed=9
        )
        path = tmp_path / f"fig3-{loop}.json"
        save_result(result, path)
        return path.read_bytes()

    def test_fig3_archive_bytes_match(self, tmp_path, monkeypatch):
        archives = {
            loop: self.archive(tmp_path, monkeypatch, loop)
            for loop in LOOPS
        }
        assert archives["heap"] == archives["batched"]


class TestSanitizeLedger:
    """The draw ledger sees the same event stream from every loop."""

    def ledger_for(self, testbed, loop):
        network, workload, grouping = testbed
        with sanitize() as state:
            simulate(network, grouping, workload, event_loop=loop)
        return state.ledger

    def test_ledger_matches_across_loops(self, testbed):
        ledgers = {
            loop: self.ledger_for(testbed, loop) for loop in LOOPS
        }
        result = diff_ledgers(ledgers["heap"], ledgers["batched"])
        assert result.clean, "\n".join(
            divergence.describe() for divergence in result.divergences
        )

    def test_fig3_serial_vs_jobs2_zero_divergence(self):
        from repro.experiments import run_fig3
        from repro.runtime.scheduler import TaskScheduler, use_scheduler

        def ledger_at(jobs):
            with sanitize() as state:
                with TaskScheduler(jobs) as scheduler, \
                        use_scheduler(scheduler):
                    run_fig3(
                        num_caches=16, group_sizes=(2, 8),
                        subset_count=3, seed=9,
                    )
            return state.ledger

        result = diff_ledgers(ledger_at(1), ledger_at(2))
        assert result.clean, "\n".join(
            divergence.describe() for divergence in result.divergences
        )
