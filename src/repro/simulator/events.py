"""Simulation events and the time-ordered event queue.

Two event kinds drive the simulation, mirroring the paper's setup
("caches are driven by request-log files, while the origin server reads
continuously from an update log file"):

* :class:`RequestEvent` — a client request arrives at an edge cache;
* :class:`OriginUpdateEvent` — the origin updates a document.

Ties are broken by event priority (updates before requests at the same
timestamp, so a request sees the freshest state) and then by insertion
order, which keeps runs fully deterministic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import SimulationError
from repro.types import DocumentId, NodeId, SimMs


@dataclass(frozen=True)
class RequestEvent:
    """A client request arriving at an edge cache."""

    timestamp_ms: SimMs
    cache_node: NodeId
    doc_id: DocumentId
    priority: int = field(default=1, init=False, repr=False)


@dataclass(frozen=True)
class OriginUpdateEvent:
    """An origin-side document update."""

    timestamp_ms: SimMs
    doc_id: DocumentId
    priority: int = field(default=0, init=False, repr=False)


@dataclass(frozen=True)
class CacheFailEvent:
    """A cache crashes: contents lost, node unavailable until recovery.

    Failures sort before requests at the same timestamp so a request
    never hits a cache that failed "at the same moment".
    """

    timestamp_ms: SimMs
    cache_node: NodeId
    priority: int = field(default=0, init=False, repr=False)


@dataclass(frozen=True)
class CacheRecoverEvent:
    """A failed cache rejoins, empty."""

    timestamp_ms: SimMs
    cache_node: NodeId
    priority: int = field(default=0, init=False, repr=False)


@dataclass(frozen=True)
class PartitionStartEvent:
    """A set of nodes is cut off from everything outside the set.

    Partitioned caches keep their contents and keep serving local hits,
    but cooperative queries and origin fetches across the cut time out.
    Sorts with the other fault events (priority 0) so a request at the
    same timestamp already sees the partition.
    """

    timestamp_ms: SimMs
    nodes: Tuple[NodeId, ...]
    partition_id: int
    priority: int = field(default=0, init=False, repr=False)


@dataclass(frozen=True)
class PartitionEndEvent:
    """The partition heals; the node set rejoins the main component."""

    timestamp_ms: SimMs
    nodes: Tuple[NodeId, ...]
    priority: int = field(default=0, init=False, repr=False)


Event = Union[
    RequestEvent,
    OriginUpdateEvent,
    CacheFailEvent,
    CacheRecoverEvent,
    PartitionStartEvent,
    PartitionEndEvent,
]


class EventQueue:
    """A deterministic min-heap of simulation events.

    Ordering key: ``(timestamp_ms, priority, insertion_sequence)``.
    Popping never goes backwards in time; pushing an event earlier than
    the last popped timestamp raises :class:`SimulationError` (the
    engine never schedules into the past).
    """

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._sequence = 0
        self._last_popped_ms: float = -float("inf")

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, event: Event) -> None:
        """Insert an event; must not precede the last popped timestamp."""
        if event.timestamp_ms < 0:
            raise SimulationError(
                f"event timestamp must be >= 0, got {event.timestamp_ms}"
            )
        if event.timestamp_ms < self._last_popped_ms:
            raise SimulationError(
                f"cannot schedule into the past: {event.timestamp_ms} < "
                f"{self._last_popped_ms}"
            )
        heapq.heappush(
            self._heap,
            (event.timestamp_ms, event.priority, self._sequence, event),
        )
        self._sequence += 1

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise SimulationError("pop from an empty event queue")
        timestamp, _priority, _seq, event = heapq.heappop(self._heap)
        self._last_popped_ms = timestamp
        return event

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next event, or None when empty."""
        if not self._heap:
            return None
        return self._heap[0][0]

    @property
    def now_ms(self) -> SimMs:
        """Timestamp of the most recently popped event (sim clock).

        0.0 until the first pop — including for a queue that has had
        events pushed but not yet popped — and thereafter the last
        popped timestamp, even once the queue is exhausted.
        """
        if self._last_popped_ms == -float("inf"):
            return 0.0
        return self._last_popped_ms


@dataclass(frozen=True)
class EventColumns:
    """The merged event stream in columnar form (batched loop input).

    Requests — by far the bulk of any workload — live as three parallel
    numpy columns sorted by timestamp (stable, so ties keep workload
    order, exactly like the queue's insertion-sequence tie-break).
    The rare *barrier* events (origin updates, cache failures and
    recoveries, partition edges — everything with priority 0) stay as
    ordinary event objects, sorted stably by timestamp in push order.

    ``barrier_positions[i]`` is the index of the first request that
    must be processed *after* barrier ``i``: barriers carry priority 0
    and requests priority 1, so at an equal timestamp the barrier goes
    first, which is exactly ``searchsorted(..., side="left")``.  The
    requests between two consecutive barrier positions form one
    *causality-safe slice*: no cache fails, no partition moves, and no
    origin version changes inside it.
    """

    req_timestamps: np.ndarray
    req_caches: np.ndarray
    req_docs: np.ndarray
    barriers: Tuple[Event, ...]
    barrier_positions: np.ndarray

    @property
    def num_requests(self) -> int:
        return int(self.req_timestamps.size)

    @property
    def num_events(self) -> int:
        return self.num_requests + len(self.barriers)


def columns_from_arrays(
    req_ts: np.ndarray,
    req_cache: np.ndarray,
    req_doc: np.ndarray,
    barrier_events: Sequence[Event],
) -> EventColumns:
    """Assemble :class:`EventColumns` from pre-extracted request columns."""
    if not (req_ts.size == req_cache.size == req_doc.size):
        raise SimulationError(
            "request columns disagree on length: "
            f"{req_ts.size}/{req_cache.size}/{req_doc.size}"
        )
    # Workloads are generated time-sorted; only re-order when a caller
    # hands us a shuffled log (kind="stable" keeps ties in log order,
    # matching the queue's insertion-sequence tie-break).
    if req_ts.size and np.any(np.diff(req_ts) < 0):
        order = np.argsort(req_ts, kind="stable")
        req_ts = req_ts[order]
        req_cache = req_cache[order]
        req_doc = req_doc[order]
    for event in barrier_events:
        if event.timestamp_ms < 0:
            raise SimulationError(
                f"event timestamp must be >= 0, got {event.timestamp_ms}"
            )
        if event.priority != 0:
            raise SimulationError(
                f"barrier events must have priority 0, got {event!r}"
            )
    barriers = tuple(
        sorted(barrier_events, key=lambda e: e.timestamp_ms)
    )
    positions = np.searchsorted(
        req_ts,
        np.asarray([b.timestamp_ms for b in barriers], dtype=np.float64),
        side="left",
    ).astype(np.int64)
    return EventColumns(
        req_timestamps=req_ts,
        req_caches=req_cache,
        req_docs=req_doc,
        barriers=barriers,
        barrier_positions=positions,
    )


#: The event-stream ledger hook installed by ``repro.sanitize``
#: (duck-typed: ``record_stream(pairs)`` with ``(type_name,
#: timestamp_ms)`` pairs in merged event order).  The batched loop has
#: no per-event queue pops to patch, so it feeds the draw ledger
#: through this hook instead; None — the overwhelmingly common case —
#: costs one global read per run, and this module never imports the
#: sanitizer.
_COLUMN_LEDGER: Optional[Any] = None


def set_column_ledger(hook: Optional[Any]) -> Optional[Any]:
    """Install (or clear, with None) the column-stream ledger hook.

    Returns the previously-installed hook so callers can restore it.
    """
    global _COLUMN_LEDGER  # noqa: PLW0603 - sanitizer-installed hook slot
    previous = _COLUMN_LEDGER
    _COLUMN_LEDGER = hook
    return previous


def column_ledger() -> Optional[Any]:
    """The currently-installed column-stream ledger hook, if any."""
    return _COLUMN_LEDGER
