"""The discrete event simulation engine.

Wires together the caches, origin server, group protocol, latency model
and metrics, validates the request, update and fault streams once and
lowers them to :class:`~repro.simulator.events.EventColumns`, then
hands the columns to one of two event loops: the batched kernel
(:mod:`repro.simulator.batched`, the default) or the heap reference
oracle (:mod:`repro.simulator.reference`).  The rare barrier events
(updates, failures, recoveries, partition edges) are handled here, by
the same methods under both loops.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Union

import numpy as np

from repro.config import SimulationConfig
from repro.core.groups import GroupingResult
from repro.errors import SimulationError
from repro.faults.schedule import FaultSchedule
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.obs.profiling import perf_seconds
from repro.simulator.batched import run_batched
from repro.simulator.cache import EdgeCache
from repro.simulator.events import (
    CacheFailEvent,
    CacheRecoverEvent,
    Event,
    EventColumns,
    OriginUpdateEvent,
    PartitionEndEvent,
    PartitionStartEvent,
    columns_from_arrays,
)
from repro.simulator.group_proto import GroupProtocol
from repro.simulator.latency import LatencyModel
from repro.simulator.metrics import SimulationMetrics
from repro.simulator.origin import OriginServer
from repro.simulator.origin_load import OriginLoadTracker
from repro.simulator.reference import ReferenceLoop
from repro.simulator.replacement import make_policy
from repro.simulator.state import CacheStore
from repro.topology.network import EdgeCacheNetwork
from repro.types import NodeId
from repro.workload.ibm_synthetic import Workload

#: Event loop used when the caller passes ``event_loop=None``: the
#: batched kernel (:mod:`repro.simulator.batched`).  The only other loop
#: is ``"heap"``, the reference oracle (:mod:`repro.simulator.
#: reference`) it is held bit-identical to on every metric, trace and
#: figure; tests monkeypatch this constant to pit the two against each
#: other.
DEFAULT_EVENT_LOOP = "batched"

#: Cumulative events processed by every engine run in this process.
#: Updated once per completed run (never inside the hot loop), it lets
#: the scheduler's worker telemetry attribute events/s to each task
#: without attaching an observer — see repro.runtime.telemetry.
_EVENTS_TOTAL = 0


def events_total() -> int:
    """Cumulative events processed by this process's engines.

    Telemetry only: deltas of this counter around a work unit give the
    unit's event count; the value never feeds back into simulation.
    """
    return _EVENTS_TOTAL


def absorb_events(count: int) -> None:
    """Fold a worker's event-count delta into this process's counter.

    :meth:`repro.runtime.scheduler.TaskScheduler.map` calls this while
    reassembling pool results, so the parent's :func:`events_total`
    after a parallel map matches what a serial run would report.  This
    is the registered merge-back hook for ``_EVENTS_TOTAL`` — see
    ``repro.lint.effects.MERGE_BACK_REGISTRY`` (the
    ``shared-mutable-global`` rule flags task-reachable counters
    without one).
    """
    global _EVENTS_TOTAL  # noqa: PLW0603 - the sanctioned merge-back site
    _EVENTS_TOTAL += int(count)


class SimulationEngine:
    """One simulation run over a fixed network, grouping, and workload."""

    def __init__(
        self,
        network: EdgeCacheNetwork,
        grouping: GroupingResult,
        workload: Workload,
        config: Optional[SimulationConfig] = None,
        group_protocol_mode: str = "beacon",
        failures: Sequence[Union[CacheFailEvent, CacheRecoverEvent]] = (),
        observer: Optional[Observer] = None,
        event_loop: Optional[str] = None,
        faults: Optional[FaultSchedule] = None,
    ) -> None:
        if event_loop is None:
            event_loop = DEFAULT_EVENT_LOOP
        if event_loop not in ("batched", "heap"):
            raise SimulationError(
                f"unknown event loop {event_loop!r} "
                f"(expected 'batched' or 'heap')"
            )
        self._event_loop = event_loop
        self._config = config or SimulationConfig()
        # Single gate for all instrumentation: when no instrument is
        # attached the per-event overhead is one cached boolean check.
        self._observer = observer if observer is not None else NULL_OBSERVER
        self._instrumented = self._observer.active
        self._config.validate()
        self._network = network

        grouped = set(grouping.all_members)
        expected = set(network.cache_nodes)
        if grouped != expected:
            raise SimulationError(
                "grouping must cover exactly the network's caches: "
                f"{len(grouped)} grouped vs {len(expected)} in network"
            )

        self._origin = OriginServer(workload.catalog)
        # Failed caches, shared with the protocol so lookups never
        # target them.
        self._down: Set[NodeId] = set()
        # Active partitions (node -> partition id), shared with the
        # protocol so cooperative lookups never cross a cut.
        self._partition_of: Dict[NodeId, int] = {}
        if faults is not None:
            faults.validate()
            self._partition_timeout_ms = faults.partition_timeout_ms
        else:
            self._partition_timeout_ms = 500.0
        self._protocol = GroupProtocol(
            network,
            grouping,
            group_lookup_ms=self._config.group_lookup_ms,
            mode=group_protocol_mode,
            unavailable=self._down,
            partition_of=self._partition_of,
            partition_timeout_ms=self._partition_timeout_ms,
        )
        self._latency = LatencyModel(network, self._config)
        self._metrics = SimulationMetrics(network.cache_nodes)
        self._origin_load: Optional[OriginLoadTracker] = None
        if self._config.origin_queueing:
            self._origin_load = OriginLoadTracker(
                capacity_rps=self._config.origin_capacity_rps,
                window_ms=self._config.origin_load_window_ms,
            )

        capacity = max(
            1,
            int(
                self._config.cache.capacity_fraction
                * workload.catalog.total_bytes
            ),
        )
        # One struct-of-records store shared by every cache of the run
        # (the batched loop drives its records directly; the per-node
        # EdgeCache objects are thin views).
        self._store = CacheStore()
        self._caches: Dict[NodeId, EdgeCache] = {
            node: EdgeCache(
                node=node,
                capacity_bytes=capacity,
                policy=make_policy(self._config.cache.replacement_policy),
                on_evict=self._protocol.drop_copy,
                store=self._store,
            )
            for node in network.cache_nodes
        }

        # Requests are validated once, on the columns both loops read;
        # the first offender in workload order is reported.
        req_ts, req_cache, req_doc = workload.request_columns()
        member = np.isin(
            req_cache, np.fromiter(self._caches, dtype=np.int64)
        )
        if not member.all():
            bad = int(req_cache[int(np.argmax(~member))])
            raise SimulationError(
                f"request targets cache {bad} which is not in the network"
            )
        # Barrier events, in push order (updates, failures, faults):
        # the columns' stable timestamp sort keeps that order among
        # equal timestamps, which is the tie-break both loops use.
        barrier_events: List[Event] = []
        for update in workload.updates:
            barrier_events.append(
                OriginUpdateEvent(
                    timestamp_ms=update.timestamp_ms, doc_id=update.doc_id
                )
            )
        for failure in failures:
            if failure.cache_node not in self._caches:
                raise SimulationError(
                    f"failure event targets unknown cache "
                    f"{failure.cache_node}"
                )
            barrier_events.append(failure)
        if faults is not None:
            for fault_event in faults.events():
                if isinstance(
                    fault_event, (PartitionStartEvent, PartitionEndEvent)
                ):
                    for node in fault_event.nodes:
                        if (
                            node not in self._caches
                            and node != network.origin
                        ):
                            raise SimulationError(
                                f"partition names unknown node {node} "
                                f"(not a cache or the origin)"
                            )
                elif fault_event.cache_node not in self._caches:
                    raise SimulationError(
                        f"fault schedule targets unknown cache "
                        f"{fault_event.cache_node}"
                    )
                barrier_events.append(fault_event)
        # Taken (set back to None) by the first run().
        self._columns: Optional[EventColumns] = columns_from_arrays(
            req_ts, req_cache, req_doc, barrier_events
        )

        self._warmup_remaining = int(
            self._config.warmup_fraction * len(workload.requests)
        )

        # Exact-type table of the barrier handlers both loops dispatch.
        self._barrier_handlers: Dict[type, Callable[..., None]] = {
            OriginUpdateEvent: self._handle_update,
            CacheFailEvent: self._handle_fail,
            CacheRecoverEvent: self._handle_recover,
            PartitionStartEvent: self._handle_partition_start,
            PartitionEndEvent: self._handle_partition_end,
        }

    @property
    def metrics(self) -> SimulationMetrics:
        return self._metrics

    @property
    def protocol(self) -> GroupProtocol:
        return self._protocol

    @property
    def origin(self) -> OriginServer:
        return self._origin

    def cache(self, node: NodeId) -> EdgeCache:
        try:
            return self._caches[node]
        except KeyError:
            raise SimulationError(f"unknown cache {node}") from None

    @property
    def observer(self) -> Observer:
        return self._observer

    def run(self) -> SimulationMetrics:
        """Process every event; returns the collected metrics.

        ``"batched"`` (the default) runs the columnar slice kernel of
        :mod:`repro.simulator.batched`; ``"heap"`` runs the per-event
        reference loop of :mod:`repro.simulator.reference`.  The two are
        bit-identical by contract (``tests/simulator/
        test_batched_loop.py``).  A second ``run()`` processes nothing.
        """
        # Wall clock is profiling-only here: it feeds throughput
        # reporting, never event timestamps or simulated behaviour.
        started = perf_seconds()
        columns, self._columns = self._columns, None
        if columns is None:
            events_processed = 0
        elif self._event_loop == "batched":
            events_processed = run_batched(self, columns)
        else:
            events_processed = ReferenceLoop(self).run(columns)
        global _EVENTS_TOTAL  # noqa: PLW0603 - merged counter, see absorb_events
        _EVENTS_TOTAL += events_processed
        if self._observer is not NULL_OBSERVER:
            # Any caller-supplied observer gets throughput numbers, even
            # one with no per-request instruments (manifest-only runs).
            self._observer.note_throughput(
                events_processed, perf_seconds() - started
            )
        if not self._metrics.conservation_holds():
            raise SimulationError("request conservation violated")
        return self._metrics

    def _sample_gauges(self, now_ms: float) -> Dict[str, float]:
        """Point-in-time gauges attached to each flushed sample."""
        utilisation = 0.0
        if self._origin_load is not None:
            utilisation = self._origin_load.utilisation(now_ms)
        occupancy = sum(
            c.used_bytes / c.capacity_bytes for c in self._caches.values()
        ) / len(self._caches)
        return {
            "origin_utilisation": utilisation,
            "cache_occupancy": occupancy,
        }

    @property
    def origin_load(self) -> Optional[OriginLoadTracker]:
        """The congestion tracker (None unless origin_queueing is on)."""
        return self._origin_load

    # -- barrier handlers (shared by both loops) ---------------------------

    def _handle_fail(self, event: CacheFailEvent) -> None:
        """Crash a cache: contents lost, directory cleaned, node down."""
        cache = self.cache(event.cache_node)
        if event.cache_node in self._down:
            raise SimulationError(
                f"cache {event.cache_node} failed while already down"
            )
        for doc_id in list(cache.stored_ids()):
            cache.expire(doc_id)  # eviction callback cleans the directory
        self._down.add(event.cache_node)
        if self._instrumented:
            self._observer.on_cache_fail(
                event.timestamp_ms, event.cache_node
            )

    def _handle_recover(self, event: CacheRecoverEvent) -> None:
        """A failed cache rejoins, empty."""
        if event.cache_node not in self._down:
            raise SimulationError(
                f"cache {event.cache_node} recovered but was not down"
            )
        self._down.discard(event.cache_node)
        if self._instrumented:
            self._observer.on_cache_recover(
                event.timestamp_ms, event.cache_node
            )

    def _handle_partition_start(self, event: PartitionStartEvent) -> None:
        """A node set splits off; overlapping partitions are rejected."""
        for node in event.nodes:
            if node in self._partition_of:
                raise SimulationError(
                    f"node {node} is already in partition "
                    f"{self._partition_of[node]}"
                )
            self._partition_of[node] = event.partition_id
        if self._instrumented:
            self._observer.on_partition_start(
                event.timestamp_ms, event.nodes
            )

    def _handle_partition_end(self, event: PartitionEndEvent) -> None:
        """The partition heals; its nodes rejoin the main component."""
        for node in event.nodes:
            if node not in self._partition_of:
                raise SimulationError(
                    f"node {node} left a partition it was never in"
                )
            del self._partition_of[node]
        if self._instrumented:
            self._observer.on_partition_end(event.timestamp_ms, event.nodes)

    def _handle_update(self, event: OriginUpdateEvent) -> None:
        self._origin.apply_update(event.doc_id)
        if self._instrumented:
            self._observer.on_origin_update(event.timestamp_ms, event.doc_id)
        if (
            not self._config.consistency_enabled
            or self._config.consistency_mode != "invalidate"
        ):
            return
        # Server-driven invalidation: every cache holding the document
        # drops its stale copy (see repro.simulator.origin for the
        # immediacy simplification).
        for holder in list(self._protocol.all_holders(event.doc_id)):
            if self._partition_of and not self._protocol.reachable(
                holder, self._network.origin
            ):
                # The invalidation cannot cross the cut; the partitioned
                # holder keeps (and may serve) its stale copy.
                continue
            dropped = self.cache(holder).invalidate(event.doc_id)
            if dropped:
                self._metrics.record_invalidation(holder)
