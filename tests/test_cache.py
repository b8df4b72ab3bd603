"""Score cache: tier behavior, staleness ceiling, LRU eviction,
sweeps, and the recompute contract."""

from __future__ import annotations

import random

import pytest

from trustgate.cache import (
    HEAP_SLACK,
    CacheConfig,
    CacheError,
    ScoreStore,
    TrustScoreCache,
)
from trustgate.engine import TrustRecord, make_record
from trustgate.model import Triplet


def record_for(triplet: Triplet, now: int) -> TrustRecord:
    return make_record(triplet, 1.0, 1.0, 0.5, now)


def triplet(i: int) -> Triplet:
    return Triplet(f"u{i:03d}", f"d{i:03d}", f"r{i:03d}")


class OracleCache:
    """Plain-dict reference model of the documented cache semantics."""

    def __init__(self, capacity: int, max_refresh: int):
        self.capacity = capacity
        self.max_refresh = max_refresh
        self.entries: dict[Triplet, tuple[TrustRecord, int]] = {}
        self.store: dict[Triplet, TrustRecord] = {}
        self.tiers: list[str] = []
        self.metrics = {"cache_hits": 0, "store_hits": 0,
                        "recomputes": 0, "evictions": 0}
        self.served_ages: list[int] = []

    def fresh(self, record: TrustRecord | None, now: int) -> bool:
        return (
            record is not None
            and record.computed_at <= now
            and now - record.computed_at <= self.max_refresh
        )

    def install(self, record: TrustRecord, now: int) -> None:
        self.entries[record.triplet] = (record, now)
        while len(self.entries) > self.capacity:
            victim = min(
                self.entries, key=lambda t: (self.entries[t][1], t)
            )
            del self.entries[victim]
            self.metrics["evictions"] += 1

    def sweep(self, now: int) -> int:
        refreshed = 0
        for t in sorted(self.store):
            if not self.fresh(self.store[t], now):
                self.store[t] = record_for(t, now)
                if t in self.entries:
                    self.entries[t] = (self.store[t], self.entries[t][1])
                refreshed += 1
        return refreshed

    def get(self, t: Triplet, now: int) -> TrustRecord:
        held = self.entries.get(t)
        if held is not None and self.fresh(held[0], now):
            self.entries[t] = (held[0], now)
            self.metrics["cache_hits"] += 1
            self.tiers.append("cache_hit")
            self.served_ages.append(now - held[0].computed_at)
            return held[0]
        stored = self.store.get(t)
        if self.fresh(stored, now):
            self.install(stored, now)
            self.metrics["store_hits"] += 1
            self.tiers.append("store_hit")
            self.served_ages.append(now - stored.computed_at)
            return stored
        fresh = record_for(t, now)
        self.store[t] = fresh
        self.install(fresh, now)
        self.metrics["recomputes"] += 1
        self.tiers.append("recomputed")
        self.served_ages.append(0)
        return fresh


class TestTraceEquivalence:
    @pytest.mark.parametrize("capacity,universe", [(4, 12), (16, 20), (1, 5)])
    def test_random_trace_matches_oracle(self, capacity, universe):
        max_refresh = 40
        cache = TrustScoreCache(
            CacheConfig(capacity=capacity, max_refresh=max_refresh),
            ScoreStore(),
        )
        oracle = OracleCache(capacity, max_refresh)
        rng = random.Random(1000 + capacity)
        tiers = []
        now = 0
        for _ in range(10_000):
            now += rng.randrange(0, 8)
            t = triplet(rng.randrange(universe))
            record, tier = cache.get_score(t, now, record_for)
            expected = oracle.get(t, now)
            tiers.append(tier)
            assert record == expected
        assert tiers == oracle.tiers
        assert cache.metrics.to_obj() == oracle.metrics
        assert sorted(cache._entries) == sorted(oracle.entries)
        assert cache.metrics.max_served_age == max(oracle.served_ages)

    @staticmethod
    def replay(capacity, steps, max_refresh=40):
        """Drive the cache and the oracle through ``steps`` of
        ("get", t, now) and ("sweep", None, now); after every step the
        cached triplets must agree, so evictions agree in order."""

        cache = TrustScoreCache(
            CacheConfig(capacity=capacity, max_refresh=max_refresh),
            ScoreStore(),
        )
        oracle = OracleCache(capacity, max_refresh)
        for op, t, now in steps:
            if op == "sweep":
                result = cache.refresh_sweep(now, record_for)
                assert result.refreshed == oracle.sweep(now)
                assert result.failures == ()
            else:
                record, tier = cache.get_score(t, now, record_for)
                assert record == oracle.get(t, now)
                assert tier == oracle.tiers[-1]
            assert sorted(cache._entries) == sorted(oracle.entries)
        assert cache.metrics.to_obj() == oracle.metrics
        return cache, oracle

    @pytest.mark.parametrize("capacity", [1, 3, 8])
    def test_now_stepping_backwards_matches_oracle(self, capacity):
        rng = random.Random(2000 + capacity)
        now = 100
        steps = []
        for _ in range(5_000):
            now = max(0, now + rng.randrange(-6, 8))
            steps.append(("get", triplet(rng.randrange(12)), now))
        _, oracle = self.replay(capacity, steps)
        assert oracle.metrics["evictions"] > 0

    @pytest.mark.parametrize("capacity", [1, 4, 16])
    def test_sweeps_between_lookups_match_oracle(self, capacity):
        rng = random.Random(3000 + capacity)
        now = 0
        steps = []
        for i in range(5_000):
            now += rng.randrange(0, 6)
            if i % 37 == 0:
                steps.append(("sweep", None, now))
            steps.append(("get", triplet(rng.randrange(24)), now))
        _, oracle = self.replay(capacity, steps, max_refresh=30)
        assert oracle.metrics["evictions"] > 0

    @pytest.mark.parametrize("capacity", [1, 3])
    def test_installs_at_one_now_evict_by_triplet_order(self, capacity):
        rng = random.Random(4000 + capacity)
        steps = []
        for now in (5, 5, 9):
            order = list(range(20))
            rng.shuffle(order)
            steps.extend(("get", triplet(i), now) for i in order)
        _, oracle = self.replay(capacity, steps)
        assert oracle.metrics["evictions"] > 40

    def test_heap_stays_bounded_under_hits(self):
        capacity = 8
        cache = TrustScoreCache(
            CacheConfig(capacity=capacity, max_refresh=10**6)
        )
        hot = [triplet(i) for i in range(3)]
        for t in hot:
            cache.get_score(t, 0, record_for)
        for now in range(1, 10_001):
            _, tier = cache.get_score(hot[now % 3], now, record_for)
            assert tier == "cache_hit"
            assert len(cache._heap) <= HEAP_SLACK * capacity
        assert cache.metrics.cache_hits == 10_000

    def test_no_serve_older_than_ceiling(self):
        max_refresh = 25
        cache = TrustScoreCache(CacheConfig(capacity=8,
                                            max_refresh=max_refresh))
        rng = random.Random(7)
        now = 0
        for _ in range(5_000):
            now += rng.randrange(0, 10)
            t = triplet(rng.randrange(10))
            record, _ = cache.get_score(t, now, record_for)
            assert now - record.computed_at <= max_refresh
        assert cache.metrics.max_served_age <= max_refresh


class TestTiers:
    def test_cache_then_store_then_recompute(self):
        cache = TrustScoreCache(CacheConfig(capacity=1, max_refresh=100))
        t1, t2 = triplet(1), triplet(2)
        _, tier = cache.get_score(t1, 0, record_for)
        assert tier == "recomputed"
        _, tier = cache.get_score(t1, 10, record_for)
        assert tier == "cache_hit"
        # t2 evicts t1 from the single-slot cache...
        _, tier = cache.get_score(t2, 20, record_for)
        assert tier == "recomputed"
        assert cache.metrics.evictions == 1
        # ...but t1 is still fresh in the backing store.
        _, tier = cache.get_score(t1, 30, record_for)
        assert tier == "store_hit"

    def test_stale_everywhere_recomputes(self):
        cache = TrustScoreCache(CacheConfig(capacity=4, max_refresh=10))
        t = triplet(1)
        cache.get_score(t, 0, record_for)
        record, tier = cache.get_score(t, 11, record_for)
        assert tier == "recomputed"
        assert record.computed_at == 11

    def test_future_record_is_not_fresh(self):
        cache = TrustScoreCache(CacheConfig(capacity=4, max_refresh=10))
        t = triplet(1)
        cache.store.put(record_for(t, 50))
        _, tier = cache.get_score(t, 20, record_for)
        assert tier == "recomputed"

    def test_age_exactly_at_ceiling_still_served(self):
        cache = TrustScoreCache(CacheConfig(capacity=4, max_refresh=10))
        t = triplet(1)
        cache.get_score(t, 0, record_for)
        _, tier = cache.get_score(t, 10, record_for)
        assert tier == "cache_hit"
        assert cache.metrics.max_served_age == 10


class TestEviction:
    def test_lru_victim_oldest_access(self):
        cache = TrustScoreCache(CacheConfig(capacity=2, max_refresh=1000))
        a, b, c = triplet(1), triplet(2), triplet(3)
        cache.get_score(a, 0, record_for)
        cache.get_score(b, 1, record_for)
        cache.get_score(a, 2, record_for)       # a is now most recent
        cache.get_score(c, 3, record_for)       # evicts b
        assert sorted(cache._entries) == sorted([a, c])

    def test_tie_breaks_on_triplet_order(self):
        cache = TrustScoreCache(CacheConfig(capacity=2, max_refresh=1000))
        a, b, c = triplet(1), triplet(2), triplet(3)
        cache.get_score(b, 0, record_for)
        cache.get_score(a, 0, record_for)       # same last_access as b
        cache.get_score(c, 0, record_for)       # evicts a (smaller triplet)
        assert sorted(cache._entries) == sorted([b, c])


class TestRecomputeContract:
    def test_wrong_triplet_rejected(self):
        cache = TrustScoreCache(CacheConfig(capacity=2, max_refresh=100))

        def liar(t: Triplet, now: int) -> TrustRecord:
            return record_for(triplet(99), now)

        with pytest.raises(CacheError, match="another triplet"):
            cache.get_score(triplet(1), 0, liar)

    def test_stale_result_rejected(self):
        cache = TrustScoreCache(CacheConfig(capacity=2, max_refresh=100))

        def ancient(t: Triplet, now: int) -> TrustRecord:
            return record_for(t, now - 500)

        with pytest.raises(CacheError, match="stale"):
            cache.get_score(triplet(1), 1000, ancient)

    def test_raising_recompute_leaves_state_unchanged(self):
        cache = TrustScoreCache(CacheConfig(capacity=8, max_refresh=100))

        def failing(tr: Triplet, now: int) -> TrustRecord:
            raise RuntimeError("score source down")

        for i in range(20):
            cache.get_score(triplet(i), i, record_for)
        stale = triplet(0)
        records = {r.triplet: r for r in cache.store.records()}
        entries = dict(cache._entries)
        metrics = cache.metrics.to_obj()
        for t, now in ((triplet(999), 50), (stale, 500)):
            with pytest.raises(RuntimeError, match="score source down"):
                cache.get_score(t, now, failing)
        assert {r.triplet: r for r in cache.store.records()} == records
        assert cache._entries == entries
        assert cache.metrics.to_obj() == metrics
        assert cache.metrics.recomputes == 20


class TestRefreshSweep:
    def test_sweep_refreshes_only_stale_records(self):
        cache = TrustScoreCache(CacheConfig(capacity=8, max_refresh=10))
        old, fresh = triplet(1), triplet(2)
        cache.get_score(old, 0, record_for)
        cache.get_score(fresh, 25, record_for)
        result = cache.refresh_sweep(30, record_for)
        assert result.refreshed == 1
        assert result.failures == ()
        assert cache.store.get(old).computed_at == 30
        assert cache.store.get(fresh).computed_at == 25

    def test_sweep_updates_cached_entries(self):
        cache = TrustScoreCache(CacheConfig(capacity=8, max_refresh=10))
        t = triplet(1)
        cache.get_score(t, 0, record_for)
        cache.refresh_sweep(50, record_for)
        record, tier = cache.get_score(t, 55, record_for)
        assert tier == "cache_hit"
        assert record.computed_at == 50

    def test_cache_hit_after_sweep_is_store_record(self):
        cache = TrustScoreCache(CacheConfig(capacity=2, max_refresh=10))
        kept, evicted = triplet(1), triplet(2)
        cache.get_score(evicted, 0, record_for)
        cache.get_score(kept, 1, record_for)
        cache.get_score(triplet(3), 2, record_for)     # evicts `evicted`
        result = cache.refresh_sweep(50, record_for)
        assert result.refreshed == 3
        record, tier = cache.get_score(kept, 52, record_for)
        assert tier == "cache_hit"
        assert record is cache.store.get(kept)
        record, tier = cache.get_score(evicted, 53, record_for)
        assert tier == "store_hit"
        assert record is cache.store.get(evicted)

    def test_sweep_failures_do_not_abort(self):
        cache = TrustScoreCache(CacheConfig(capacity=8, max_refresh=10))
        bad, good = triplet(1), triplet(2)
        cache.get_score(bad, 0, record_for)
        cache.get_score(good, 0, record_for)

        def flaky(t: Triplet, now: int) -> TrustRecord:
            if t == bad:
                raise RuntimeError("sensor offline")
            return record_for(t, now)

        result = cache.refresh_sweep(100, flaky)
        assert result.refreshed == 1
        assert len(result.failures) == 1
        assert result.failures[0][0] == bad
        assert "sensor offline" in result.failures[0][1]
        assert cache.store.get(good).computed_at == 100
        assert cache.store.get(bad).computed_at == 0

    def test_sweep_on_empty_store_is_noop(self):
        cache = TrustScoreCache(CacheConfig(capacity=8, max_refresh=10))
        result = cache.refresh_sweep(0, record_for)
        assert result.refreshed == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_sweep_matches_full_sort_oracle(self, seed):
        # The sweep as it was specified first: every stored triplet in
        # sorted order, each checked with the freshness predicate. The
        # store mixes fresh records, records exactly max_refresh old,
        # stale ones and future-dated ones, and some recomputes fail.
        rng = random.Random(seed)
        max_refresh, now = 10, 100
        ids = [Triplet(f"user-{rng.randrange(12)}", f"dev-{rng.randrange(12)}",
                       f"res-{rng.randrange(12)}") for _ in range(60)]
        ids = list(dict.fromkeys(ids))
        ages = (0, 3, max_refresh, max_refresh + 1, 50, -1, -7)
        cache = TrustScoreCache(CacheConfig(capacity=4,
                                            max_refresh=max_refresh))
        oracle = OracleCache(capacity=4, max_refresh=max_refresh)
        for t in ids:
            record = record_for(t, now - rng.choice(ages))
            cache.store.put(record)
            oracle.store[t] = record
        failing = set(rng.sample(ids, 8))
        calls = []

        def recompute(t: Triplet, at: int) -> TrustRecord:
            calls.append(t)
            if t in failing:
                raise RuntimeError(f"no score for {t}")
            return record_for(t, at)

        expected = [t for t in sorted(oracle.store)
                    if not oracle.fresh(oracle.store[t], now)]
        result = cache.refresh_sweep(now, recompute)
        assert calls == expected
        assert result.failures == tuple(
            (t, f"no score for {t}") for t in expected if t in failing)
        assert result.refreshed == len(expected) - len(result.failures)
        for t in ids:
            if t in expected and t not in failing:
                assert cache.store.get(t) == record_for(t, now)
            else:
                assert cache.store.get(t) is oracle.store[t]
        assert any(oracle.store[t].computed_at == now - max_refresh
                   for t in ids if t not in expected)
        assert any(oracle.store[t].computed_at > now
                   for t in expected)

    def test_sweep_failures_in_triplet_order(self):
        # Triplets order field by field as strings: "user-10" < "user-2".
        ids = [
            Triplet("user-10", "dev-1", "res-a"),
            Triplet("user-2", "dev-1", "res-a"),
            Triplet("user-1", "dev-2", "res-a"),
            Triplet("user-1", "dev-10", "res-b"),
            Triplet("user-1", "dev-1", "res-b"),
            Triplet("user-1", "dev-1", "res-a"),
            Triplet("user-1", "dev-1", "res-a-2"),
            Triplet("user-1", "dev-1", "res-10"),
        ]
        random.Random(5).shuffle(ids)
        cache = TrustScoreCache(CacheConfig(capacity=8, max_refresh=10))
        for t in ids:
            cache.store.put(record_for(t, 0))

        def failing(t: Triplet, now: int) -> TrustRecord:
            raise RuntimeError("down")

        result = cache.refresh_sweep(50, failing)
        assert [t for t, _ in result.failures] == sorted(ids)
        assert result.failures[0][0] == Triplet("user-1", "dev-1", "res-10")


class TestConfig:
    def test_bad_capacity(self):
        with pytest.raises(CacheError):
            CacheConfig(capacity=0)

    def test_bad_max_refresh(self):
        with pytest.raises(CacheError):
            CacheConfig(capacity=1, max_refresh=-1)
