"""Output checks, counted as failed operations against operations attempted."""

from __future__ import annotations

import json
import math
from typing import List, Optional

from repro.core.groups import GroupingResult
from repro.simulator.metrics import SimulationMetrics
from repro.topology.network import EdgeCacheNetwork

from benchlib.workloads import PointResult


class Ledger:
    """Operations attempted and failed, with the first few reasons."""

    MAX_REASONS = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, what: str, problems: List[str]) -> None:
        """Count one operation; it failed if any problem was found."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < self.MAX_REASONS:
                self.reasons.append(f"{what}: {'; '.join(problems)}")


def grouping_key(grouping: GroupingResult) -> tuple:
    """The grouping's membership and landmarks, for equality tests."""
    landmarks = grouping.landmarks.nodes if grouping.landmarks else ()
    return (tuple(g.members for g in grouping.groups), tuple(landmarks))


def fingerprint(result: PointResult) -> Optional[str]:
    """The point's simulation fingerprint, computed once per result."""
    if result.metrics is not None and result.fingerprint is None:
        result.fingerprint = metrics_fingerprint(result.metrics)
    return result.fingerprint


def metrics_fingerprint(metrics: SimulationMetrics) -> str:
    """Every number a simulation reports, bit-exact (floats by repr)."""
    rows: list = []
    for node in metrics.cache_nodes():
        stats = metrics.cache_stats(node)
        latency = stats.latency
        rows.append([
            node, stats.local_hits, stats.group_hits, stats.origin_fetches,
            stats.query_messages, stats.peer_bytes, stats.origin_bytes,
            stats.invalidations_received, stats.stale_serves,
            stats.placement_skips, stats.requests_while_down,
            stats.partition_timeouts, latency.count, repr(latency.mean),
            repr(latency.variance), repr(latency.minimum),
            repr(latency.maximum),
        ])
    rows.append([
        metrics.warmup_skipped, metrics.invalidation_messages,
        repr(metrics.latency_p95_ms()),
    ])
    return json.dumps(rows)


def partition_problems(
    grouping: GroupingResult, network: EdgeCacheNetwork, k: int
) -> List[str]:
    """Problems if ``grouping`` is not a partition into <= k groups."""
    problems = []
    sizes = [len(g.members) for g in grouping.groups]
    if not 1 <= len(sizes) <= k:
        problems.append(f"{len(sizes)} groups for K={k}")
    if min(sizes, default=0) < 1:
        problems.append("empty group")
    members = [m for g in grouping.groups for m in g.members]
    if len(members) != len(set(members)):
        problems.append("a cache is in two groups")
    if set(members) != set(network.cache_nodes):
        problems.append("groups do not cover exactly the network's caches")
    return problems


def point_problems(
    result: PointResult,
    network: EdgeCacheNetwork,
    reference: Optional[PointResult] = None,
) -> List[str]:
    """Every check on one point; ``reference`` must give identical outputs."""
    problems = partition_problems(result.grouping, network, result.point.k)
    if not (math.isfinite(result.gicost_ms) and result.gicost_ms > 0):
        problems.append(f"GICost {result.gicost_ms!r}")
    if result.fit_error is not None and not math.isfinite(result.fit_error):
        problems.append(f"landmark fit error {result.fit_error!r}")
    if result.metrics is not None:
        if not result.metrics.conservation_holds():
            problems.append("hits + group hits + origin fetches != requests")
        latency = result.metrics.average_latency_ms()
        if not (math.isfinite(latency) and latency > 0):
            problems.append(f"mean latency {latency!r}")
    if reference is not None:
        problems.extend(difference(result, reference))
    return problems


def difference(result: PointResult, reference: PointResult) -> List[str]:
    """Ways ``result`` differs from ``reference`` (same point)."""
    problems = []
    if grouping_key(result.grouping) != grouping_key(reference.grouping):
        problems.append("grouping differs from the reference")
    if result.gicost_ms != reference.gicost_ms:
        problems.append("GICost differs from the reference")
    if fingerprint(result) != fingerprint(reference):
        problems.append("simulation metrics differ from the reference")
    return problems
