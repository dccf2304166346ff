"""The batched event loop (``event_loop="batched"``, the default).

The reference loop (:mod:`repro.simulator.reference`, ``"heap"``) pops
one Python event object per step and runs each request through the
cache, protocol, latency and metrics methods.  This module runs the
same semantics as a *slice kernel* over :class:`~repro.simulator.
events.EventColumns`:

* Requests live as pre-extracted timestamp/cache/doc columns; no
  ``RequestEvent`` objects exist at all.
* The rare *barrier* events (origin updates, failures, recoveries,
  partition edges) split the request stream into causality-safe
  slices: between two barriers no cache fails, no partition moves and
  no origin version changes, so requests are processed in a tight
  loop with every per-run constant bound to a local.
* Cache state is driven inline: the kernel mutates the shared
  :class:`~repro.simulator.state.CacheStore` records and the utility
  policy's :meth:`~repro.simulator.replacement.UtilityPolicy.hot_state`
  structures directly, replaying *exactly* the operations the method
  path would have performed (same dict and heap mutations, same float
  expressions, same order).
* Metrics accumulate into flat per-cache slots (Welford recurrence and
  histogram binning with identical arithmetic) and fold into
  :class:`~repro.simulator.metrics.SimulationMetrics` once at end of
  run; instrumented runs buffer trace records per slice and mirror the
  sampler's next-due tick in a local so observation costs one compare
  per event.
* Barriers themselves run through the engine's barrier handlers — the
  very methods the reference loop dispatches — so divergence there is
  structurally impossible.

The loop reads as five stages: slice planning (:func:`_plan_slices`),
local hit, cooperative miss, placement, and barrier dispatch.  What
several stages share — the latency fold, dropping a copy, the TTL
check, the origin-fetch account, and the sampler and trace flushes —
is written once, as a closure defined once per run.

The contract — pinned by ``tests/simulator/test_batched_loop.py`` and
the sanitize ledger — is that a batched run is *bit-identical* to a
``"heap"`` run: every metric, trace record, sample, and archived
figure byte.  Any optimisation that would change a single float
operation's order does not belong here.

The inline fast path covers the default ``"utility"`` replacement
policy and the ``"beacon"``/``"directory"`` protocols; LRU/LFU and
``"multicast"`` runs take the same slice loop but drive the policy or
lookup through the original (bound-method) code paths, trading a
little speed for zero duplication of rarely-hot logic.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import inf
from typing import TYPE_CHECKING, Any, Iterator, List, Optional, Tuple

from repro.obs.trace import KIND_REQUEST, TraceRecord
from repro.simulator import events as events_module
from repro.simulator.events import Event, EventColumns, OriginUpdateEvent

if TYPE_CHECKING:
    from repro.simulator.engine import SimulationEngine


def _plan_slices(
    positions: List[int],
    barriers: Tuple[Event, ...],
    total_requests: int,
    warmup: int,
) -> Iterator[Tuple[int, int, bool, Optional[Event]]]:
    """Request slices ``(lo, hi, counted, barrier)`` in merged order.

    Barrier ``k`` follows the requests before ``positions[k]``; the
    last slice has no barrier after it (None).  A slice that straddles
    the warm-up boundary is cut there, so ``counted`` is a constant
    inside every slice.
    """
    lo = 0
    for k, hi in enumerate(positions + [total_requests]):
        if lo < warmup < hi:
            yield lo, warmup, False, None
            lo = warmup
        barrier = barriers[k] if k < len(barriers) else None
        yield lo, hi, lo >= warmup, barrier
        lo = hi


def _merged_stream(
    req_ts: List[float], barriers: Tuple[Event, ...], positions: List[int]
) -> Iterator[Tuple[str, float]]:
    """(type name, timestamp) pairs in merged pop order (ledger feed)."""
    for lo, hi, _, barrier in _plan_slices(
        positions, barriers, len(req_ts), 0
    ):
        for ts in req_ts[lo:hi]:
            yield ("RequestEvent", ts)
        if barrier is not None:
            yield (type(barrier).__name__, barrier.timestamp_ms)


def run_batched(engine: "SimulationEngine", columns: EventColumns) -> int:
    """Process the engine's event columns; returns the event count.

    Mutates the engine's shared state (store, policies, protocol,
    metrics, observer) exactly as the reference loop would; the
    engine's ``run()`` wraps this with the common throughput and
    conservation postlude.
    """
    # -- event stream ------------------------------------------------
    req_ts = columns.req_timestamps.tolist()
    req_cache = columns.req_caches.tolist()
    req_doc = columns.req_docs.tolist()
    barriers = columns.barriers
    positions = columns.barrier_positions.tolist()
    total_requests = len(req_ts)

    hook = events_module.column_ledger()
    if hook is not None:
        # Feeding the merged stream up front keeps ledger parity with
        # the reference loop's per-pop records even for runs that fail
        # mid-way.
        hook.record_stream(_merged_stream(req_ts, barriers, positions))

    # -- shared state, bound to locals -------------------------------
    config = engine._config
    network = engine._network
    nodes = network.cache_nodes
    origin_node = network.origin
    size_index = nodes[-1] + 1 if nodes else 1

    store = engine._store
    used = store.used
    caches = engine._caches
    docs_by: List[Any] = [None] * size_index
    cap_by = [0] * size_index
    for node in nodes:
        docs_by[node] = store.docs[node]
        cap_by[node] = caches[node].capacity_bytes

    util_mode = config.cache.replacement_policy == "utility"
    policy_by: List[Any] = [None] * size_index
    acc_by: List[Any] = [None] * size_index
    psz_by: List[Any] = [None] * size_index
    pfc_by: List[Any] = [None] * size_index
    pinv_by: List[Any] = [None] * size_index
    pver_by: List[Any] = [None] * size_index
    heap_by: List[Any] = [None] * size_index
    # Deferred heap entries: the utility policy's (score, version, doc)
    # pushes buffer here and flush into the real heap only when an
    # eviction is about to read it.  Tuple comparison is a total order
    # (per-doc versions make entries distinct), so heap *pop order*
    # depends only on the entry multiset, never on push order — which
    # is what makes the deferral invisible to victim selection.
    pend_by: List[Any] = [None] * size_index
    for node in nodes:
        policy: Any = caches[node].policy
        policy_by[node] = policy
        if util_mode:
            hot = policy.hot_state()
            acc_by[node] = hot["access"]
            psz_by[node] = hot["size"]
            pfc_by[node] = hot["fetch_cost"]
            pinv_by[node] = hot["invalidations"]
            pver_by[node] = hot["version"]
            heap_by[node] = hot["heap"]
            pend_by[node] = []

    protocol = engine._protocol
    proto: Any = protocol.hot_state()
    holders_map = proto["holders"]
    lookup_ms = proto["lookup_ms"]
    partition_timeout_ms = proto["partition_timeout_ms"]
    beacon_mode = proto["mode"] == "beacon"
    inline_lookup = beacon_mode or proto["mode"] == "directory"
    proto_lookup = protocol.lookup
    group_by = [-1] * size_index
    peers_by: List[Any] = [None] * size_index
    members_by: List[Any] = [None] * size_index
    for node in nodes:
        group_by[node] = proto["group_of"][node]
        peers_by[node] = proto["peers"][node]
        members_by[node] = proto["members_sorted"][node]

    rtt = network.distances.as_array()
    rtt_by: List[Any] = [None] * size_index
    for node in nodes:
        rtt_by[node] = rtt[node].tolist()

    local_ms = config.cache.local_processing_ms
    bandwidth = config.link_bandwidth_bytes_per_ms
    origin_processing = config.origin_processing_ms
    rtt0_by = [0.0] * size_index
    fetch0_by = [0.0] * size_index
    for node in nodes:
        rtt0_by[node] = rtt_by[node][origin_node]
        # Same expression the latency model evaluates per fetch:
        # rtt-to-origin plus flat processing (constant when origin
        # queueing is off, so it can be hoisted out of the loop).
        fetch0_by[node] = rtt_by[node][origin_node] + origin_processing

    origin = engine._origin
    sizes = origin.catalog.sizes.tolist()
    origin_version = [0] * len(sizes)
    origin_version_of = origin.version_of

    ttl_mode = (
        config.consistency_enabled and config.consistency_mode == "ttl"
    )
    ttl_ms = config.ttl_ms
    cooperative = config.cache.cooperative_placement
    placement_threshold = config.cache.placement_rtt_threshold_ms

    down = engine._down
    partition_of = engine._partition_of
    origin_load: Any = engine._origin_load
    queueing = origin_load is not None
    if queueing:
        record_arrival = origin_load.record_arrival
        inflation_factor = origin_load.inflation_factor

    # -- metric accumulators -----------------------------------------
    metrics = engine._metrics
    warmup = engine._warmup_remaining
    lat_by: List[Any] = [None] * size_index
    for node in nodes:
        lat_by[node] = [0, 0.0, 0.0, inf, -inf]
    m_local = [0] * size_index
    m_group = [0] * size_index
    m_origin = [0] * size_index
    m_queries = [0] * size_index
    m_peer_bytes = [0] * size_index
    m_origin_bytes = [0] * size_index
    m_stale = [0] * size_index
    m_skips = [0] * size_index
    m_down = [0] * size_index
    m_ptimeout = [0] * size_index

    hist = metrics._latency_hist
    hist_width = hist.bin_width
    overflow_bin = hist.num_bins - 1
    bins = [0] * hist.num_bins
    hist_sum = 0.0

    # -- instrumentation ---------------------------------------------
    observer = engine._observer
    instrumented = engine._instrumented
    trace: Any = observer.trace if instrumented else None
    sampler: Any = observer.sampler if instrumented else None
    trace_buf: List[TraceRecord] = []
    window_local = window_group = window_origin = 0
    window_totals: List[float] = []
    next_tick = sampler.next_tick_ms if sampler is not None else inf
    sample_gauges = engine._sample_gauges

    barrier_handlers = engine._barrier_handlers

    # -- blocks shared by several stages -----------------------------

    def fold(c: int, total: float) -> None:
        """Fold one counted request's latency into cache ``c``'s
        Welford slot and the global histogram (the arithmetic of
        :meth:`SimulationMetrics.record_request`)."""
        nonlocal hist_sum
        slot = lat_by[c]
        n = slot[0] + 1
        slot[0] = n
        delta = total - slot[1]
        mean = slot[1] + delta / n
        slot[1] = mean
        slot[2] += delta * (total - mean)
        if total < slot[3]:
            slot[3] = total
        if total > slot[4]:
            slot[4] = total
        bin_index = int(total / hist_width)
        if bin_index >= overflow_bin:
            bin_index = overflow_bin
        bins[bin_index] += 1
        hist_sum += total

    def drop_copy(node: int, doc: int) -> None:
        """Remove a resident copy under the utility policy: the inline
        ``EdgeCache._remove`` + ``UtilityPolicy.on_remove`` +
        ``GroupProtocol.drop_copy``."""
        used[node] -= docs_by[node].pop(doc)[0]
        del acc_by[node][doc]
        del psz_by[node][doc]
        del pfc_by[node][doc]
        del pver_by[node][doc]
        group = group_by[node]
        by_group = holders_map.get(doc)
        if by_group:
            held = by_group.get(group)
            if held is not None:
                held.discard(node)
                if not held:
                    del by_group[group]
            if not by_group:
                del holders_map[doc]

    def unexpired(node: int, doc: int, ts: float) -> Any:
        """``node``'s record of ``doc``, or None — a copy whose TTL
        lapsed is dropped first, before it can serve anything."""
        record = docs_by[node].get(doc)
        if record is not None and ts - record[1] > ttl_ms:
            if util_mode:
                drop_copy(node, doc)
            else:
                caches[node].expire(doc)
            return None
        return record

    def origin_account(
        c: int, ts: float, query: float
    ) -> Tuple[float, float]:
        """``(query, fetch)`` latency of an origin fetch by cache ``c``.

        A cache partitioned away from the origin first waits out the
        partition timeout; the fetch is the RTT plus origin processing,
        inflated by the current load when origin queueing is on.
        """
        if partition_of and (
            partition_of.get(c) != partition_of.get(origin_node)
        ):
            query = query + partition_timeout_ms
            m_ptimeout[c] += 1
        if queueing:
            record_arrival(ts)
            return query, (
                rtt0_by[c] + origin_processing * inflation_factor(ts)
            )
        return query, fetch0_by[c]

    def flush_samples(until: float) -> None:
        """Fold the buffered window into the sampler, then flush every
        sample tick at or before ``until`` (the reference loop's
        pre-event flush)."""
        nonlocal window_local, window_group, window_origin, next_tick
        if window_totals:
            sampler.observe_batch(
                window_local, window_group, window_origin, window_totals
            )
            window_local = window_group = window_origin = 0
            window_totals.clear()
        while next_tick <= until:
            sampler.flush(next_tick, **sample_gauges(next_tick))
            next_tick = sampler.next_tick_ms

    def flush_trace() -> None:
        """Hand the buffered request records to the trace collector."""
        if trace_buf:
            trace.record_many(trace_buf)
            trace_buf.clear()

    # -- the slice loop ----------------------------------------------
    for lo, hi, counted, barrier in _plan_slices(
        positions, barriers, total_requests, warmup
    ):
        # Failures and partitions only move at barriers: whether any
        # holder may be unreachable is a constant of the slice.
        degraded = bool(down or partition_of)
        for ts, c, d in zip(
            req_ts[lo:hi], req_cache[lo:hi], req_doc[lo:hi]
        ):
            if next_tick <= ts:
                flush_samples(ts)

            if down and c in down:
                # Down cache: client falls through to the origin
                # directly (no group help, nothing cached).
                m_down[c] += 1
                size = sizes[d]
                query, fetch = origin_account(c, ts, 0.0)
                transfer = size / bandwidth
                total = local_ms + query + fetch + transfer
                if counted:
                    fold(c, total)
                    m_origin[c] += 1
                    m_origin_bytes[c] += size
                if sampler is not None:
                    window_origin += 1
                    window_totals.append(total)
                if trace is not None:
                    trace_buf.append(TraceRecord(
                        KIND_REQUEST, ts, c, d, "origin_fetch", total,
                        query, fetch, transfer, 0, size, counted, False,
                    ))
                continue

            # ---- local hit ----
            if ttl_mode:
                record = unexpired(c, d, ts)
            else:
                record = docs_by[c].get(d)
            if record is not None:
                if util_mode:
                    acc_c = acc_by[c]
                    accesses = acc_c[d] + 1
                    acc_c[d] = accesses
                    pver_c = pver_by[c]
                    version = pver_c[d] + 1
                    pver_c[d] = version
                    pend_by[c].append((
                        accesses * pfc_by[c][d]
                        / (psz_by[c][d] * (1.0 + pinv_by[c][d])),
                        version,
                        d,
                    ))
                else:
                    policy_by[c].on_access(d, ts)
                stale = record[2] < origin_version[d]
                if counted:
                    fold(c, local_ms)
                    m_local[c] += 1
                    if stale:
                        m_stale[c] += 1
                if sampler is not None:
                    window_local += 1
                    window_totals.append(local_ms)
                if trace is not None:
                    trace_buf.append(TraceRecord(
                        KIND_REQUEST, ts, c, d, "local_hit", local_ms,
                        0.0, 0.0, 0.0, 0, 0, counted, stale,
                    ))
                continue

            # ---- cooperative miss ----
            size = sizes[d]
            rtt_c = rtt_by[c]
            hit = False
            holder = -1
            if not peers_by[c]:
                query = 0.0
                messages = 0
            elif inline_lookup:
                by_group = holders_map.get(d)
                if beacon_mode:
                    members = members_by[c]
                    beacon = members[(d * 2654435761) % len(members)]
                    if beacon == c:
                        query = lookup_ms + 0.0
                        messages = 0
                    else:
                        query = lookup_ms + rtt_c[beacon]
                        messages = 2
                        if down and beacon in down:
                            # The beacon is the only member who knows
                            # the holders: the query times out.
                            messages = 1
                            by_group = None
                        elif partition_of and (
                            partition_of.get(c) != partition_of.get(beacon)
                        ):
                            query = lookup_ms + partition_timeout_ms
                            messages = 1
                            by_group = None
                else:
                    # The group directory is idealised: it never fails.
                    query = lookup_ms
                    messages = 2
                if by_group is not None:
                    held = by_group.get(group_by[c])
                    if held is not None:
                        if degraded:
                            # Skip down and cut-off holders, as
                            # GroupProtocol.holders_in_group does.
                            side = partition_of.get(c)
                            held = [
                                h for h in held
                                if h not in down
                                and partition_of.get(h) == side
                            ]
                        # First-min scan in the set's order with the
                        # strict-less comparison of GroupProtocol.lookup.
                        best_rtt = inf
                        for h in held:
                            if h != c:
                                candidate_rtt = rtt_c[h]
                                if candidate_rtt < best_rtt:
                                    best_rtt = candidate_rtt
                                    holder = h
                        hit = holder >= 0
            else:
                # Multicast (and any future mode): the full method.
                result = proto_lookup(c, d)
                query = result.query_ms
                messages = result.messages
                if result.holder is not None:
                    hit = True
                    holder = result.holder

            if hit and ttl_mode and unexpired(holder, d, ts) is None:
                # The holder's own copy lapsed: degrade to a miss.
                hit = False

            if hit:
                fetch = rtt_c[holder]
                fetched_version = docs_by[holder][d][2]
            else:
                query, fetch = origin_account(c, ts, query)
                fetched_version = origin_version[d]
            transfer = size / bandwidth
            total = local_ms + query + fetch + transfer

            # ---- placement ----
            if cooperative and hit and rtt_c[holder] <= placement_threshold:
                m_skips[c] += 1
            else:
                fetch_cost = fetch + transfer
                if util_mode:
                    admitted = False
                    cap_c = cap_by[c]
                    if size <= cap_c:
                        docs_c = docs_by[c]
                        acc_c = acc_by[c]
                        psz_c = psz_by[c]
                        pfc_c = pfc_by[c]
                        pver_c = pver_by[c]
                        heap_c = heap_by[c]
                        if used[c] + size > cap_c:
                            # Eviction will read the heap: flush the
                            # deferred entries first.
                            pend_c = pend_by[c]
                            if pend_c:
                                for entry in pend_c:
                                    heappush(heap_c, entry)
                                del pend_c[:]
                        while used[c] + size > cap_c:
                            # Lazy-heap victim selection: pop stale
                            # entries, evict the live minimum.
                            while True:
                                top = heap_c[0]
                                if pver_c.get(top[2]) == top[1]:
                                    break
                                heappop(heap_c)
                            drop_copy(c, top[2])
                        docs_c[d] = [size, ts, fetched_version]
                        used[c] += size
                        acc_c[d] = 1
                        psz_c[d] = size
                        # Re-fetch cost is at least a token cost even
                        # for free fetches (policy on_insert rule).
                        cost = fetch_cost if fetch_cost > 0.01 else 0.01
                        pfc_c[d] = cost
                        invalidations = pinv_by[c].setdefault(d, 0)
                        version = pver_c.get(d, 0) + 1
                        pver_c[d] = version
                        pend_by[c].append((
                            1 * cost / (size * (1.0 + invalidations)),
                            version,
                            d,
                        ))
                        admitted = True
                else:
                    admitted = caches[c].admit(
                        d, size, fetch_cost, ts, fetched_version
                    )
                if admitted:
                    by_group = holders_map.get(d)
                    if by_group is None:
                        holders_map[d] = by_group = {}
                    held = by_group.get(group_by[c])
                    if held is None:
                        by_group[group_by[c]] = held = set()
                    held.add(c)

            stale = fetched_version < origin_version[d]
            if counted:
                fold(c, total)
                if messages:
                    m_queries[c] += messages
                if stale:
                    m_stale[c] += 1
                if hit:
                    m_group[c] += 1
                    m_peer_bytes[c] += size
                else:
                    m_origin[c] += 1
                    m_origin_bytes[c] += size
            if sampler is not None:
                if hit:
                    window_group += 1
                else:
                    window_origin += 1
                window_totals.append(total)
            if trace is not None:
                trace_buf.append(TraceRecord(
                    KIND_REQUEST, ts, c, d,
                    "group_hit" if hit else "origin_fetch", total, query,
                    fetch, transfer, messages, size, counted, stale,
                ))

        # ---- barrier dispatch: the engine's handler on shared state ----
        if barrier is None:
            continue
        if next_tick <= barrier.timestamp_ms:
            flush_samples(barrier.timestamp_ms)
        # The handler may append its own trace record; flush the
        # buffered request rows first to keep JSONL order exact.
        flush_trace()
        barrier_handlers[type(barrier)](barrier)
        if type(barrier) is OriginUpdateEvent:
            origin_version[barrier.doc_id] = origin_version_of(
                barrier.doc_id
            )

    # -- postlude ----------------------------------------------------
    # The last event's timestamp: a barrier sorts after a request only
    # at a strictly later time, so the later of the two last stamps.
    last_ts = max(
        req_ts[-1:] + [event.timestamp_ms for event in barriers[-1:]],
        default=0.0,
    )
    flush_trace()
    if sampler is not None:
        # Every tick up to last_ts is already flushed; this folds the
        # open window only.
        flush_samples(last_ts)
        sampler.finalize(last_ts, **sample_gauges(last_ts))

    if util_mode:
        # Leave the policies' heaps holding every entry (the deferred
        # buffers are a loop-internal detail, not post-run state).  One
        # heapify per cache: only the entry multiset is observable.
        for node in nodes:
            heap_node = heap_by[node]
            heap_node.extend(pend_by[node])
            heapify(heap_node)

    rows = {}
    for node in nodes:
        slot = lat_by[node]
        rows[node] = (
            slot[0], slot[1], slot[2], slot[3], slot[4],
            m_local[node], m_group[node], m_origin[node],
            m_queries[node], m_peer_bytes[node], m_origin_bytes[node],
            m_stale[node], m_skips[node], m_down[node],
            m_ptimeout[node],
        )
    # The histogram's count, minimum and maximum follow exactly from
    # the bins and the per-cache slots; only the sum needs its own
    # accumulator (float addition order).
    hist_min = min((lat_by[node][3] for node in nodes), default=inf)
    hist_max = max((lat_by[node][4] for node in nodes), default=-inf)
    metrics.absorb_batched(
        rows,
        min(warmup, total_requests),
        (bins, sum(bins), hist_sum, hist_min, hist_max),
    )
    return total_requests + len(barriers)
