"""The reference event loop (``event_loop="heap"``): the test oracle.

Every request becomes a :class:`~repro.simulator.events.RequestEvent`,
every event is popped one at a time from an
:class:`~repro.simulator.events.EventQueue` in ``(timestamp, priority,
insertion sequence)`` order, and each request runs through
:meth:`ReferenceLoop._handle_request` — the request semantics written
plainly over the :class:`~repro.simulator.cache.EdgeCache`,
:class:`~repro.simulator.group_proto.GroupProtocol` and
:class:`~repro.simulator.latency.LatencyModel` methods.  Barrier events
(updates, failures, recoveries, partition edges) go to the engine's
handlers, the same ones the batched loop dispatches.

The loop is slow by design.  It is kept as the oracle the batched
kernel (:mod:`repro.simulator.batched`) must match bit for bit —
metrics, trace records, samples, archived figures and sanitize ledgers
(``tests/simulator/test_batched_loop.py``) — and as the reference run
of ``repro bench`` and the benchmark's post-window check.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict

from repro.simulator.cache import EdgeCache
from repro.simulator.events import (
    Event,
    EventColumns,
    EventQueue,
    RequestEvent,
)
from repro.simulator.group_proto import (
    LookupOutcome,
    LookupResult,
)
from repro.simulator.latency import ServiceAccount
from repro.types import DocumentId, NodeId

if TYPE_CHECKING:
    from repro.simulator.engine import SimulationEngine


class ReferenceLoop:
    """Per-event-object execution of one engine's event stream."""

    def __init__(self, engine: "SimulationEngine") -> None:
        self._engine = engine
        self._config = engine._config
        self._network = engine._network
        self._caches = engine._caches
        self._origin = engine._origin
        self._protocol = engine._protocol
        self._latency = engine._latency
        self._metrics = engine._metrics
        self._origin_load = engine._origin_load
        self._down = engine._down
        self._partition_of = engine._partition_of
        self._partition_timeout_ms = engine._partition_timeout_ms
        self._observer = engine._observer
        self._instrumented = engine._instrumented
        self._warmup_remaining = engine._warmup_remaining
        self._processed_requests = 0

    def run(self, columns: EventColumns) -> int:
        """Push every event, pop and handle them in order; returns the count.

        Requests are pushed in column order and barriers after them in
        column order, so the queue's ``(timestamp, priority, sequence)``
        key reproduces the merged order the batched loop walks.
        """
        queue = EventQueue()
        for timestamp_ms, cache_node, doc_id in zip(
            columns.req_timestamps.tolist(),
            columns.req_caches.tolist(),
            columns.req_docs.tolist(),
        ):
            queue.push(RequestEvent(timestamp_ms, cache_node, doc_id))
        for barrier in columns.barriers:
            queue.push(barrier)

        handlers: Dict[type, Callable[..., None]] = dict(
            self._engine._barrier_handlers
        )
        handlers[RequestEvent] = self._handle_request
        sampler = self._observer.sampler if self._instrumented else None
        sample_gauges = self._engine._sample_gauges
        events_processed = 0
        now = 0.0
        while queue:
            event: Event = queue.pop()
            events_processed += 1
            now = event.timestamp_ms
            if sampler is not None:
                # Flush every sample boundary that precedes this event,
                # so sample times align with simulated (not host) time.
                tick = sampler.next_due(now)
                while tick is not None:
                    sampler.flush(tick, **sample_gauges(tick))
                    tick = sampler.next_due(now)
            handlers[type(event)](event)
        if sampler is not None:
            sampler.finalize(now, **sample_gauges(now))
        return events_processed

    # -- the request path -------------------------------------------------

    def _handle_request(self, event: RequestEvent) -> None:
        cache = self._caches[event.cache_node]
        doc_id = event.doc_id
        now = event.timestamp_ms
        size = self._origin.size_of(doc_id)

        counted = self._warmup_remaining <= self._processed_requests
        self._processed_requests += 1

        if cache.node in self._down:
            # The edge cache is unreachable; the client falls through to
            # the origin directly (no group help, nothing cached).
            stats = self._metrics.cache_stats(cache.node)
            stats.requests_while_down += 1
            account = self._origin_account(
                cache.node, size, query_ms=0.0, now_ms=now
            )
            self._metrics.record_request(
                cache.node, account, messages=0, size_bytes=size,
                counted=counted,
            )
            if self._instrumented:
                self._observer.on_request(
                    now, cache.node, doc_id, account, 0, size,
                    counted, False,
                )
            return

        self._expire_if_due(cache, doc_id, now)
        if cache.holds(doc_id):
            entry = cache.access(doc_id, now)
            account = self._latency.local_hit()
            stale = entry.version < self._origin.version_of(doc_id)
            self._metrics.record_request(
                cache.node, account, messages=0, size_bytes=0,
                counted=counted, stale=stale,
            )
            if self._instrumented:
                self._observer.on_request(
                    now, cache.node, doc_id, account, 0, 0, counted, stale,
                )
            return

        lookup = self._protocol.lookup(cache.node, doc_id)
        if lookup.outcome is LookupOutcome.GROUP_HIT:
            assert lookup.holder is not None
            # A holder found by the directory may itself have expired
            # under TTL consistency; re-check before fetching from it.
            holder_cache = self._caches[lookup.holder]
            self._expire_if_due(holder_cache, doc_id, now)
            if not holder_cache.holds(doc_id):
                lookup = self._degrade_to_miss(lookup)

        if lookup.outcome is LookupOutcome.GROUP_HIT:
            assert lookup.holder is not None
            account = self._latency.group_hit(
                cache.node, lookup.holder, size, query_ms=lookup.query_ms
            )
            fetched_version = (
                self._caches[lookup.holder].entry(doc_id).version
            )
        else:
            account = self._origin_account(
                cache.node, size, query_ms=lookup.query_ms, now_ms=now
            )
            fetched_version = self._origin.version_of(doc_id)

        fetch_cost = account.fetch_ms + account.transfer_ms
        if self._skip_placement(cache.node, lookup):
            self._metrics.cache_stats(cache.node).placement_skips += 1
        else:
            admitted = cache.admit(
                doc_id,
                size,
                fetch_cost_ms=fetch_cost,
                now_ms=now,
                version=fetched_version,
            )
            if admitted:
                self._protocol.record_copy(cache.node, doc_id)
        stale = fetched_version < self._origin.version_of(doc_id)
        self._metrics.record_request(
            cache.node,
            account,
            messages=lookup.messages,
            size_bytes=size,
            counted=counted,
            stale=stale,
        )
        if self._instrumented:
            self._observer.on_request(
                now, cache.node, doc_id, account, lookup.messages, size,
                counted, stale,
            )

    def _origin_account(
        self, cache_node: NodeId, size: int, query_ms: float, now_ms: float
    ) -> ServiceAccount:
        """Origin-fetch latency account, congestion-aware when enabled.

        A cache partitioned away from the origin first waits out the
        partition timeout before the fetch succeeds (modelling the
        retry over a backup path once the primary times out).
        """
        if self._partition_of and not self._protocol.reachable(
            cache_node, self._network.origin
        ):
            query_ms += self._partition_timeout_ms
            self._metrics.cache_stats(cache_node).partition_timeouts += 1
        processing = None
        if self._origin_load is not None:
            self._origin_load.record_arrival(now_ms)
            processing = (
                self._config.origin_processing_ms
                * self._origin_load.inflation_factor(now_ms)
            )
        return self._latency.origin_fetch(
            cache_node, size, query_ms=query_ms, processing_ms=processing
        )

    def _skip_placement(
        self, cache_node: NodeId, lookup: LookupResult
    ) -> bool:
        """Cooperative placement: skip storing after a near-peer hit."""
        cache_config = self._config.cache
        if not cache_config.cooperative_placement:
            return False
        if lookup.outcome is not LookupOutcome.GROUP_HIT:
            return False
        assert lookup.holder is not None
        return bool(
            self._network.rtt(cache_node, lookup.holder)
            <= cache_config.placement_rtt_threshold_ms
        )

    def _expire_if_due(
        self, cache: EdgeCache, doc_id: DocumentId, now_ms: float
    ) -> None:
        """Drop a TTL-expired copy before it can serve anything."""
        if (
            not self._config.consistency_enabled
            or self._config.consistency_mode != "ttl"
            or not cache.holds(doc_id)
        ):
            return
        entry = cache.entry(doc_id)
        if now_ms - entry.stored_at_ms > self._config.ttl_ms:
            cache.expire(doc_id)

    @staticmethod
    def _degrade_to_miss(lookup: LookupResult) -> LookupResult:
        """Re-shape a stale GROUP_HIT lookup into a GROUP_MISS."""
        return LookupResult(
            outcome=LookupOutcome.GROUP_MISS,
            holder=None,
            query_ms=lookup.query_ms,
            messages=lookup.messages,
        )
