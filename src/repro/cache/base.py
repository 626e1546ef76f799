"""Cache interface shared by all replacement policies.

Caches store opaque hashable object ids with an optional size (unit size
by default, byte sizes for the heterogeneous-size experiments of
Section 5.1).  ``insert`` reports evictions so the nearest-replica
directory (:mod:`repro.core.routing`) can stay consistent.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Hashable, Iterator


class Cache(ABC):
    """Abstract size-bounded cache."""

    def __init__(self, capacity: float) -> None:
        if not capacity >= 0:  # NaN fails this too
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0

    @abstractmethod
    def lookup(self, obj: Hashable) -> bool:
        """Check for ``obj``, updating both hit counters and policy state."""

    @abstractmethod
    def insert(self, obj: Hashable, size: float = 1.0) -> list[Hashable]:
        """Add ``obj``; return the objects evicted to make room.

        Objects larger than the whole cache are not admitted (and nothing
        is evicted for them).  Re-inserting a cached object refreshes its
        policy state and returns no evictions.
        """

    @abstractmethod
    def __contains__(self, obj: Hashable) -> bool:
        """Check for ``obj`` without updating any state."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of cached objects."""

    @abstractmethod
    def __iter__(self) -> Iterator[Hashable]:
        """Iterate over cached object ids (order is policy-specific)."""

    @abstractmethod
    def clear(self) -> None:
        """Drop all cached objects (hit/miss counters are kept)."""

    @property
    def hit_ratio(self) -> float:
        """Fraction of ``lookup`` calls that hit (0 when never used)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def _record(self, hit: bool) -> bool:
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        return hit
