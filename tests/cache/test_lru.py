"""Tests for the LRU cache."""

import pytest

from repro.cache import LRUCache


class TestBasics:
    def test_insert_and_lookup(self):
        cache = LRUCache(capacity=2)
        cache.insert("a")
        assert cache.lookup("a")
        assert not cache.lookup("b")
        assert cache.hits == 1
        assert cache.misses == 1

    def test_eviction_order_is_least_recent_first(self):
        cache = LRUCache(capacity=2)
        cache.insert("a")
        cache.insert("b")
        evicted = cache.insert("c")
        assert evicted == ["a"]
        assert "b" in cache and "c" in cache

    def test_lookup_refreshes_recency(self):
        cache = LRUCache(capacity=2)
        cache.insert("a")
        cache.insert("b")
        cache.lookup("a")
        evicted = cache.insert("c")
        assert evicted == ["b"]

    def test_reinsert_refreshes_recency(self):
        cache = LRUCache(capacity=2)
        cache.insert("a")
        cache.insert("b")
        cache.insert("a")
        assert cache.insert("c") == ["b"]

    def test_contains_does_not_touch_counters(self):
        cache = LRUCache(capacity=2)
        cache.insert("a")
        assert "a" in cache
        assert "b" not in cache
        assert cache.hits == 0 and cache.misses == 0

    def test_zero_capacity_admits_nothing(self):
        cache = LRUCache(capacity=0)
        assert cache.insert("a") == []
        assert "a" not in cache

    def test_negative_capacity_rejected(self):
        for capacity in (-1, float("nan")):
            with pytest.raises(ValueError, match="capacity"):
                LRUCache(capacity=capacity)

    def test_clear_keeps_counters(self):
        cache = LRUCache(capacity=4)
        cache.insert("a")
        cache.lookup("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1

    def test_iter_yields_all_objects(self):
        cache = LRUCache(capacity=4)
        for obj in "abc":
            cache.insert(obj)
        assert sorted(cache) == ["a", "b", "c"]

    def test_hit_ratio(self):
        cache = LRUCache(capacity=4)
        cache.insert("a")
        cache.lookup("a")
        cache.lookup("a")
        cache.lookup("b")
        assert cache.hit_ratio == pytest.approx(2 / 3)

    def test_hit_ratio_unused_cache_is_zero(self):
        assert LRUCache(capacity=1).hit_ratio == 0.0


class TestSizeAware:
    def test_large_object_evicts_several(self):
        cache = LRUCache(capacity=10)
        for obj in "abcde":
            cache.insert(obj, size=2.0)
        evicted = cache.insert("big", size=6.0)
        assert evicted == ["a", "b", "c"]
        assert cache.used == pytest.approx(10.0)

    def test_oversized_object_not_admitted(self):
        cache = LRUCache(capacity=5)
        cache.insert("a", size=2.0)
        assert cache.insert("huge", size=6.0) == []
        assert "huge" not in cache
        assert "a" in cache

    def test_growing_an_object_can_evict_others(self):
        cache = LRUCache(capacity=4)
        cache.insert("a", size=2.0)
        cache.insert("b", size=2.0)
        evicted = cache.insert("b", size=4.0)
        assert evicted == ["a"]
        assert cache.used == pytest.approx(4.0)

    def test_negative_size_rejected(self):
        cache = LRUCache(capacity=4)
        with pytest.raises(ValueError):
            cache.insert("a", size=-1.0)

    def test_used_tracks_inserts_and_evictions(self):
        cache = LRUCache(capacity=3)
        cache.insert("a")
        cache.insert("b")
        assert cache.used == pytest.approx(2.0)
        cache.insert("c")
        cache.insert("d")
        assert cache.used == pytest.approx(3.0)
        assert len(cache) == 3
