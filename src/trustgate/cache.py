"""Bounded caching of trust records with a hard staleness ceiling.

Scores are expensive to recompute, so the control point keeps the last
known record of each triplet in a score store, which holds the one
record per triplet, and a small LRU tier in front of it. The LRU tier is
a recency index: it records which triplets were used last and holds no
records of its own. Whatever the path, a record older than the refresh
ceiling is never served; the caller gets a freshly recomputed one
instead. The cache is single-threaded.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterable

from .model import Triplet
from .engine import TrustRecord

DEFAULT_CAPACITY = 256
DEFAULT_MAX_REFRESH = 300
# The eviction heap is rebuilt from the live index once it holds more
# than this many items per unit of capacity.
HEAP_SLACK = 4


class CacheError(ValueError):
    """Raised for invalid configuration or callback results."""


class HitKind:
    CACHE_HIT = "cache_hit"
    STORE_HIT = "store_hit"
    RECOMPUTED = "recomputed"


@dataclass(frozen=True)
class CacheConfig:
    capacity: int
    max_refresh: int = DEFAULT_MAX_REFRESH

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise CacheError("capacity must be at least 1")
        if self.max_refresh < 0:
            raise CacheError("max_refresh must be non-negative")


class ScoreStore:
    """Plain persistent map of last known records, one per triplet."""

    def __init__(self) -> None:
        self._records: dict[Triplet, TrustRecord] = {}

    def get(self, triplet: Triplet) -> TrustRecord | None:
        return self._records.get(triplet)

    def put(self, record: TrustRecord) -> None:
        self._records[record.triplet] = record

    def records(self) -> Iterable[TrustRecord]:
        """Every stored record, in no particular order."""

        return self._records.values()


Recompute = Callable[[Triplet, int], TrustRecord]


@dataclass
class CacheMetrics:
    cache_hits: int = 0
    store_hits: int = 0
    recomputes: int = 0
    evictions: int = 0
    max_served_age: int = 0

    def to_obj(self) -> dict:
        return {
            "cache_hits": self.cache_hits,
            "store_hits": self.store_hits,
            "recomputes": self.recomputes,
            "evictions": self.evictions,
        }


@dataclass(frozen=True)
class SweepResult:
    refreshed: int
    failures: tuple[tuple[Triplet, str], ...] = ()


class TrustScoreCache:
    """LRU cache over a backing score store.

    The store holds the one record per triplet. The LRU tier is a
    recency index over it: ``_entries`` maps each cached triplet to its
    last access, so evicting a triplet drops only its index key. A fresh
    store record is served as a cache hit when its triplet is indexed
    and as a store hit otherwise; ``get_score`` reports which.

    Eviction removes the triplet with the oldest last access, ties
    broken by triplet order. Victims come off a min-heap of
    ``(last_access, triplet)`` items. Every access pushes a new item and
    leaves the old one in place, so an item counts only while it matches
    its triplet's current access; the others are dropped as they
    surface.

    The cache is single-threaded: it takes no locks, and a caller that
    shares one across threads must serialise its calls.
    """

    def __init__(self, config: CacheConfig, store: ScoreStore | None = None):
        self.config = config
        self.store = store if store is not None else ScoreStore()
        self.metrics = CacheMetrics()
        self._entries: dict[Triplet, int] = {}
        self._heap: list[tuple[int, Triplet]] = []

    # -- internals ---------------------------------------------------------

    def _fresh(self, record: TrustRecord | None, now: int) -> bool:
        return (
            record is not None
            and record.computed_at <= now
            and now - record.computed_at <= self.config.max_refresh
        )

    def _touch(self, triplet: Triplet, now: int) -> None:
        """Index an access to ``triplet`` at ``now``, then evict the
        least recently used triplets past capacity."""

        entries = self._entries
        heap = self._heap
        entries[triplet] = now
        heapq.heappush(heap, (now, triplet))
        if len(heap) > HEAP_SLACK * self.config.capacity:
            heap[:] = [(last_access, t) for t, last_access in entries.items()]
            heapq.heapify(heap)
        while len(entries) > self.config.capacity:
            last_access, victim = heapq.heappop(heap)
            if entries.get(victim) == last_access:
                del entries[victim]
                self.metrics.evictions += 1

    def _checked_recompute(
        self, triplet: Triplet, now: int, recompute: Recompute
    ) -> TrustRecord:
        record = recompute(triplet, now)
        if record.triplet != triplet:
            raise CacheError("recompute returned a record for another triplet")
        if not self._fresh(record, now):
            raise CacheError("recompute returned a stale record")
        return record

    # -- interface -----------------------------------------------------------

    def get_score(
        self, triplet: Triplet, now: int, recompute: Recompute
    ) -> tuple[TrustRecord, str]:
        """Serve a record no older than ``max_refresh`` seconds.

        A fresh store record is served as it is; otherwise the recompute
        callback's result is persisted to the store and served. Either
        way the triplet becomes the most recently used. A callback that
        raises leaves the store, the index and the metrics unchanged.
        """

        metrics = self.metrics
        record = self.store.get(triplet)
        if (record is not None and record.computed_at <= now
                and now - record.computed_at <= self.config.max_refresh):
            # ``_fresh``, inline: this is the lookup every request makes.
            if triplet in self._entries:
                metrics.cache_hits += 1
                kind = HitKind.CACHE_HIT
            else:
                metrics.store_hits += 1
                kind = HitKind.STORE_HIT
        else:
            record = self._checked_recompute(triplet, now, recompute)
            self.store.put(record)
            metrics.recomputes += 1
            kind = HitKind.RECOMPUTED
        self._touch(triplet, now)
        age = now - record.computed_at
        if age > metrics.max_served_age:
            metrics.max_served_age = age
        return record, kind

    def refresh_sweep(self, now: int, recompute: Recompute) -> SweepResult:
        """Recompute every stale record in the backing store, in triplet
        order.

        A failing callback does not stop the sweep; failures are
        reported per triplet alongside the refreshed count. The sweep
        leaves the recency index alone.
        """

        fresh = self._fresh
        stale = sorted(record.triplet for record in self.store.records()
                       if not fresh(record, now))
        refreshed = 0
        failures: list[tuple[Triplet, str]] = []
        for triplet in stale:
            try:
                record = self._checked_recompute(triplet, now, recompute)
            except Exception as exc:
                failures.append((triplet, str(exc)))
                continue
            self.store.put(record)
            refreshed += 1
        return SweepResult(refreshed=refreshed, failures=tuple(failures))
