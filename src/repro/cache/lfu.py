"""Least-frequently-used cache (O(1) frequency-bucket implementation).

The paper notes LFU "yielded qualitatively similar results" to LRU
(Section 3); we provide it so that claim can be checked.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable, Iterator

from .base import Cache


class LFUCache(Cache):
    """Size-aware LFU with LRU tie-breaking inside a frequency class."""

    def __init__(self, capacity: float) -> None:
        super().__init__(capacity)
        self._size: dict[Hashable, float] = {}
        self._freq: dict[Hashable, int] = {}
        # frequency -> insertion-ordered set of objects at that frequency.
        self._buckets: dict[int, OrderedDict[Hashable, None]] = {}
        self._min_freq = 0
        self._used = 0.0

    def lookup(self, obj: Hashable) -> bool:
        if obj in self._size:
            self._bump(obj)
            return self._record(True)
        return self._record(False)

    def insert(self, obj: Hashable, size: float = 1.0) -> list[Hashable]:
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        if obj in self._size:
            self._used += size - self._size[obj]
            self._size[obj] = size
            self._bump(obj)
            return self._shrink()
        if size > self.capacity:
            return []
        evicted = []
        while self._used + size > self.capacity:
            if not self._size:
                # Only float residue of an earlier size change is left.
                self._used = 0.0
                break
            evicted.append(self._evict_one())
        self._size[obj] = size
        self._freq[obj] = 1
        self._buckets.setdefault(1, OrderedDict())[obj] = None
        self._min_freq = 1
        self._used += size
        return evicted

    def _bump(self, obj: Hashable) -> None:
        freq = self._freq[obj]
        bucket = self._buckets[freq]
        del bucket[obj]
        if not bucket:
            del self._buckets[freq]
            if self._min_freq == freq:
                self._min_freq = freq + 1
        self._freq[obj] = freq + 1
        self._buckets.setdefault(freq + 1, OrderedDict())[obj] = None

    def _evict_one(self) -> Hashable:
        bucket = self._buckets[self._min_freq]
        victim, _ = bucket.popitem(last=False)
        if not bucket:
            del self._buckets[self._min_freq]
        self._used -= self._size.pop(victim)
        del self._freq[victim]
        if not self._size:
            self._min_freq = 0
        elif self._min_freq not in self._buckets:
            self._min_freq = min(self._buckets)
        return victim

    def _shrink(self) -> list[Hashable]:
        """Evict after a re-insert grew an object; it may evict itself."""
        evicted = []
        while self._used > self.capacity:
            evicted.append(self._evict_one())
            if not self._size:
                # Drop the float residue of the size change.
                self._used = 0.0
        return evicted

    def __contains__(self, obj: Hashable) -> bool:
        return obj in self._size

    def __len__(self) -> int:
        return len(self._size)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._size)

    def clear(self) -> None:
        self._size.clear()
        self._freq.clear()
        self._buckets.clear()
        self._min_freq = 0
        self._used = 0.0

    @property
    def used(self) -> float:
        """Total size of cached objects."""
        return self._used

    def frequency(self, obj: Hashable) -> int:
        """Access count of a cached object (0 if absent)."""
        return self._freq.get(obj, 0)
