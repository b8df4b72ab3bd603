"""Bounded caching of trust records with a hard staleness ceiling.

Scores are expensive to recompute, so the control point keeps a small
LRU cache in front of the last-known-score store. Whatever the path, a
record older than the refresh ceiling is never served; the caller gets
a freshly recomputed one instead, and concurrent callers for the same
triplet trigger at most one recomputation between them.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass
from typing import Callable

from .model import Triplet
from .engine import TrustRecord

DEFAULT_CAPACITY = 256
DEFAULT_MAX_REFRESH = 300
# The eviction heap is rebuilt from the live entries once it holds more
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

    def triplets(self) -> list[Triplet]:
        return sorted(self._records, key=Triplet.as_tuple)


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


@dataclass
class _Entry:
    record: TrustRecord
    last_access: int


@dataclass(frozen=True)
class SweepResult:
    refreshed: int
    failures: tuple[tuple[Triplet, str], ...] = ()


class TrustScoreCache:
    """LRU cache over a backing score store.

    Eviction removes the entry with the oldest last access, ties broken
    by triplet order. ``get_score`` reports which tier satisfied the
    lookup.

    Victims come off a min-heap of ``(last_access, triplet)`` items.
    Every access pushes a new item and leaves the old one in place, so
    an item counts only while it matches its entry's current access;
    the others are dropped as they surface.
    """

    def __init__(self, config: CacheConfig, store: ScoreStore | None = None):
        self.config = config
        self.store = store if store is not None else ScoreStore()
        self.metrics = CacheMetrics()
        self._entries: dict[Triplet, _Entry] = {}
        self._heap: list[tuple[int, Triplet]] = []
        self._lock = threading.Lock()
        self._inflight: dict[Triplet, threading.Lock] = {}

    # -- internals ---------------------------------------------------------

    def _fresh(self, record: TrustRecord | None, now: int) -> bool:
        return (
            record is not None
            and record.computed_at <= now
            and now - record.computed_at <= self.config.max_refresh
        )

    def _note_served(self, record: TrustRecord, now: int) -> None:
        age = now - record.computed_at
        if age > self.metrics.max_served_age:
            self.metrics.max_served_age = age

    def _push(self, triplet: Triplet, now: int) -> None:
        # caller holds self._lock
        heap = self._heap
        heapq.heappush(heap, (now, triplet))
        if len(heap) > HEAP_SLACK * self.config.capacity:
            heap[:] = [(e.last_access, t) for t, e in self._entries.items()]
            heapq.heapify(heap)

    def _touch(self, triplet: Triplet, entry: _Entry, now: int) -> None:
        # caller holds self._lock
        entry.last_access = now
        self._push(triplet, now)

    def _install(self, record: TrustRecord, now: int) -> None:
        # caller holds self._lock
        entries = self._entries
        entries[record.triplet] = _Entry(record=record, last_access=now)
        self._push(record.triplet, now)
        while len(entries) > self.config.capacity:
            last_access, victim = heapq.heappop(self._heap)
            entry = entries.get(victim)
            if entry is not None and entry.last_access == last_access:
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

    def _recompute_locked(
        self, triplet: Triplet, now: int, recompute: Recompute
    ) -> TrustRecord:
        record = self._checked_recompute(triplet, now, recompute)
        with self._lock:
            self.store.put(record)
            self._install(record, now)
            self.metrics.recomputes += 1
            self._note_served(record, now)
        return record

    # -- interface -----------------------------------------------------------

    def get_score(
        self, triplet: Triplet, now: int, recompute: Recompute
    ) -> tuple[TrustRecord, str]:
        """Serve a record no older than ``max_refresh`` seconds.

        Tier order: cache entry, then backing store (promoting into the
        cache), then the recompute callback. The callback result is
        persisted to the store before being served.
        """

        with self._lock:
            entry = self._entries.get(triplet)
            if entry is not None and self._fresh(entry.record, now):
                self._touch(triplet, entry, now)
                self.metrics.cache_hits += 1
                self._note_served(entry.record, now)
                return entry.record, HitKind.CACHE_HIT
            stored = self.store.get(triplet)
            if self._fresh(stored, now):
                self._install(stored, now)
                self.metrics.store_hits += 1
                self._note_served(stored, now)
                return stored, HitKind.STORE_HIT
            flight = self._inflight.get(triplet)
            if flight is None:
                flight = self._inflight[triplet] = threading.Lock()
        with flight:
            try:
                # Double check: another caller may have recomputed while
                # we waited on the flight lock.
                with self._lock:
                    entry = self._entries.get(triplet)
                    if entry is not None and self._fresh(entry.record, now):
                        self._touch(triplet, entry, now)
                        self.metrics.cache_hits += 1
                        self._note_served(entry.record, now)
                        return entry.record, HitKind.CACHE_HIT
                record = self._recompute_locked(triplet, now, recompute)
            finally:
                # The flight is over; later misses start a new one. Drop
                # only this flight's lock: a caller queued on it may end
                # after a failed recompute let a newer flight begin.
                with self._lock:
                    if self._inflight.get(triplet) is flight:
                        del self._inflight[triplet]
        return record, HitKind.RECOMPUTED

    def refresh_sweep(self, now: int, recompute: Recompute) -> SweepResult:
        """Recompute every stale record in the backing store.

        A failing callback does not stop the sweep; failures are
        reported per triplet alongside the refreshed count.
        """

        with self._lock:
            stale = [
                t for t in self.store.triplets()
                if not self._fresh(self.store.get(t), now)
            ]
        refreshed = 0
        failures: list[tuple[Triplet, str]] = []
        for triplet in stale:
            try:
                record = self._checked_recompute(triplet, now, recompute)
            except Exception as exc:
                failures.append((triplet, str(exc)))
                continue
            with self._lock:
                self.store.put(record)
                if triplet in self._entries:
                    self._entries[triplet].record = record
            refreshed += 1
        return SweepResult(refreshed=refreshed, failures=tuple(failures))
