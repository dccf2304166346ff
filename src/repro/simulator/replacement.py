"""Document replacement policies.

The paper's caches "implement utility-based document placement and
replacement schemes" citing Cache Clouds (ICDCS 2005):
:class:`UtilityPolicy` scores each cached document by

    utility = (access_count * last_fetch_cost_ms)
              / (size_bytes * (1 + invalidation_count))

— frequently used documents that are expensive to re-fetch are worth
keeping; large documents that keep getting invalidated by origin
updates are not.  Eviction removes the lowest-utility document.

:class:`LRUPolicy` and :class:`LFUPolicy` are classic baselines for the
replacement-policy ablation bench.

All policies share one interface driven by the cache: ``on_insert``,
``on_access``, ``on_remove``, and ``select_victim``.  The utility and
LFU policies keep a lazily-invalidated min-heap so victim selection is
amortised ``O(log n)`` rather than a linear scan.
"""

from __future__ import annotations

import abc
import heapq
from collections import OrderedDict
from typing import Dict

from repro.errors import SimulationError
from repro.types import DocumentId


class ReplacementPolicy(abc.ABC):
    """Strategy interface for choosing eviction victims."""

    name: str = "abstract"

    @abc.abstractmethod
    def on_insert(
        self,
        doc_id: DocumentId,
        size_bytes: int,
        fetch_cost_ms: float,
        now_ms: float,
    ) -> None:
        """A document entered the cache."""

    @abc.abstractmethod
    def on_access(self, doc_id: DocumentId, now_ms: float) -> None:
        """A cached document served a hit."""

    @abc.abstractmethod
    def on_remove(self, doc_id: DocumentId, invalidated: bool) -> None:
        """A document left the cache (eviction or invalidation)."""

    @abc.abstractmethod
    def select_victim(self) -> DocumentId:
        """The document to evict next; cache must be non-empty."""

    def on_invalidation_feedback(self, doc_id: DocumentId) -> None:
        """A document of ours was invalidated (before removal).

        Utility-based policies use this to learn update rates; the
        default is a no-op.
        """


class LRUPolicy(ReplacementPolicy):
    """Evict the least recently used document."""

    name = "lru"

    def __init__(self) -> None:
        self._order: "OrderedDict[DocumentId, None]" = OrderedDict()

    def on_insert(
        self,
        doc_id: DocumentId,
        size_bytes: int,
        fetch_cost_ms: float,
        now_ms: float,
    ) -> None:
        if doc_id in self._order:
            raise SimulationError(f"doc {doc_id} inserted twice")
        self._order[doc_id] = None

    def on_access(self, doc_id: DocumentId, now_ms: float) -> None:
        self._require(doc_id)
        self._order.move_to_end(doc_id)

    def on_remove(self, doc_id: DocumentId, invalidated: bool) -> None:
        self._require(doc_id)
        del self._order[doc_id]

    def select_victim(self) -> DocumentId:
        if not self._order:
            raise SimulationError("victim selection on an empty cache")
        return next(iter(self._order))

    def _require(self, doc_id: DocumentId) -> None:
        if doc_id not in self._order:
            raise SimulationError(f"doc {doc_id} not tracked by LRU policy")


class _HeapScorePolicy(ReplacementPolicy):
    """Shared machinery: min-heap over a per-document score.

    Subclasses define :meth:`_score`; lower scores are evicted first.
    Heap entries carry a version number and are lazily discarded when
    they no longer match the document's current version (the standard
    stale-entry pattern, keeping updates ``O(log n)``).
    """

    def __init__(self) -> None:
        self._version: Dict[DocumentId, int] = {}
        self._heap: list = []

    @abc.abstractmethod
    def _score(self, doc_id: DocumentId) -> float:
        """Current eviction score of a tracked document (lower = evict)."""

    def _touch(self, doc_id: DocumentId) -> None:
        """Re-push the document with its current score."""
        self._version[doc_id] = self._version.get(doc_id, 0) + 1
        heapq.heappush(
            self._heap,
            (self._score(doc_id), self._version[doc_id], doc_id),
        )

    def _untrack(self, doc_id: DocumentId) -> None:
        del self._version[doc_id]

    def select_victim(self) -> DocumentId:
        while self._heap:
            _score, version, doc_id = self._heap[0]
            if self._version.get(doc_id) == version:
                return doc_id
            heapq.heappop(self._heap)  # stale entry
        raise SimulationError("victim selection on an empty cache")


class LFUPolicy(_HeapScorePolicy):
    """Evict the least frequently used document (ties by insertion)."""

    name = "lfu"

    def __init__(self) -> None:
        super().__init__()
        self._counts: Dict[DocumentId, int] = {}

    def _score(self, doc_id: DocumentId) -> float:
        return float(self._counts[doc_id])

    def on_insert(
        self,
        doc_id: DocumentId,
        size_bytes: int,
        fetch_cost_ms: float,
        now_ms: float,
    ) -> None:
        if doc_id in self._counts:
            raise SimulationError(f"doc {doc_id} inserted twice")
        self._counts[doc_id] = 1
        self._touch(doc_id)

    def on_access(self, doc_id: DocumentId, now_ms: float) -> None:
        if doc_id not in self._counts:
            raise SimulationError(f"doc {doc_id} not tracked by LFU policy")
        self._counts[doc_id] += 1
        self._touch(doc_id)

    def on_remove(self, doc_id: DocumentId, invalidated: bool) -> None:
        if doc_id not in self._counts:
            raise SimulationError(f"doc {doc_id} not tracked by LFU policy")
        del self._counts[doc_id]
        self._untrack(doc_id)


class UtilityPolicy(_HeapScorePolicy):
    """Cache Clouds-style utility-based replacement."""

    name = "utility"

    def __init__(self) -> None:
        super().__init__()
        self._access: Dict[DocumentId, int] = {}
        self._size: Dict[DocumentId, int] = {}
        self._fetch_cost: Dict[DocumentId, float] = {}
        self._invalidations: Dict[DocumentId, int] = {}

    def utility_of(self, doc_id: DocumentId) -> float:
        """The document's current utility (exposed for tests/analysis)."""
        if doc_id not in self._access:
            raise SimulationError(f"doc {doc_id} not tracked by utility policy")
        return self._score(doc_id)

    def _score(self, doc_id: DocumentId) -> float:
        accesses = self._access[doc_id]
        cost = self._fetch_cost[doc_id]
        size = self._size[doc_id]
        invalidations = self._invalidations.get(doc_id, 0)
        return accesses * cost / (size * (1.0 + invalidations))

    def on_insert(
        self,
        doc_id: DocumentId,
        size_bytes: int,
        fetch_cost_ms: float,
        now_ms: float,
    ) -> None:
        if doc_id in self._access:
            raise SimulationError(f"doc {doc_id} inserted twice")
        if size_bytes <= 0:
            raise SimulationError(f"doc {doc_id} has size {size_bytes}")
        self._access[doc_id] = 1
        self._size[doc_id] = size_bytes
        # Re-fetch cost is at least a token cost even for free fetches.
        self._fetch_cost[doc_id] = max(fetch_cost_ms, 0.01)
        # Invalidation history survives re-insertion: a document that was
        # repeatedly invalidated remains a poor caching candidate.
        self._invalidations.setdefault(doc_id, 0)
        self._touch(doc_id)

    def on_access(self, doc_id: DocumentId, now_ms: float) -> None:
        if doc_id not in self._access:
            raise SimulationError(f"doc {doc_id} not tracked by utility policy")
        self._access[doc_id] += 1
        self._touch(doc_id)

    def on_invalidation_feedback(self, doc_id: DocumentId) -> None:
        self._invalidations[doc_id] = self._invalidations.get(doc_id, 0) + 1

    def on_remove(self, doc_id: DocumentId, invalidated: bool) -> None:
        if doc_id not in self._access:
            raise SimulationError(f"doc {doc_id} not tracked by utility policy")
        del self._access[doc_id]
        del self._size[doc_id]
        del self._fetch_cost[doc_id]
        self._untrack(doc_id)

    def hot_state(self) -> Dict[str, object]:
        """The policy's mutable internals, for inline (batched) driving.

        ``{"access", "size", "fetch_cost", "invalidations", "version",
        "heap"}`` — the utility inputs plus the lazy heap.  Under this
        policy the batched event loop replays ``on_insert``/
        ``on_access``/``on_remove``/``select_victim`` as inline
        operations on these very structures, so the policy object stays
        consistent whether it was driven through methods or through the
        kernel; the loop-equivalence tests pin that the resulting
        evictions are bit-identical.  LRU and LFU runs are driven
        through their methods and expose no such state.
        """
        return {
            "access": self._access,
            "size": self._size,
            "fetch_cost": self._fetch_cost,
            "invalidations": self._invalidations,
            "version": self._version,
            "heap": self._heap,
        }


def make_policy(name: str) -> ReplacementPolicy:
    """Instantiate a replacement policy by config name."""
    policies = {
        "utility": UtilityPolicy,
        "lru": LRUPolicy,
        "lfu": LFUPolicy,
    }
    try:
        return policies[name]()
    except KeyError:
        known = ", ".join(sorted(policies))
        raise SimulationError(
            f"unknown replacement policy {name!r}; known: {known}"
        ) from None
