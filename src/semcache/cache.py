"""Byte-capacity content cache with recency eviction and prefetch accounting.

Keys are opaque; the simulator keys every cache by entity IRI in both
modes.  Every entry remembers whether it was inserted on demand or by a
prefetch, so the useless-prefetch ratio (prefetched bytes never served to
anyone) can be reported per run.

The order of the entries is the eviction order, so each eviction takes
the front entry in O(1).  Under LRU every touch (a hit, a refreshing re-insert or a
prefetch credit) moves the entry to the back; under FIFO entries never
move, so a refresh keeps its place.  Entries touched at the same time are
therefore evicted in operation order.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass, asdict
from typing import Hashable, Optional


class CacheError(Exception):
    pass


class TimeRegression(CacheError):
    """A timestamp went backwards relative to an earlier operation."""


class ContentOrigin(enum.Enum):
    DEMAND = "demand"
    PREFETCH = "prefetch"


@dataclass
class CacheEntry:
    key: Hashable
    size: int
    origin: ContentOrigin
    hit_count: int = 0
    # Set once the entry's bytes have been credited as a useful prefetch.
    prefetch_credited: bool = False


@dataclass
class CacheStats:
    lookups: int = 0
    hits: int = 0
    demand_insertions: int = 0
    prefetch_insertions: int = 0
    evictions: int = 0
    rejections: int = 0
    prefetched_bytes: int = 0
    prefetched_bytes_hit: int = 0
    used: int = 0
    capacity: int = 0

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def useless_prefetch_ratio(self) -> float:
        if not self.prefetched_bytes:
            return 0.0
        return (self.prefetched_bytes - self.prefetched_bytes_hit) / self.prefetched_bytes


class Cache:
    """Single-writer byte-capacity cache with LRU or FIFO eviction."""

    def __init__(self, capacity: int, policy: str = "lru"):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if policy not in ("lru", "fifo"):
            raise ValueError(f"unknown eviction policy {policy!r}")
        self.capacity = capacity
        self.policy = policy
        self._entries: OrderedDict[Hashable, CacheEntry] = OrderedDict()
        self._clock = 0.0
        self._stats = CacheStats(capacity=capacity)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    @property
    def used(self) -> int:
        return self._stats.used

    def _advance(self, now: float) -> None:
        if now < self._clock:
            raise TimeRegression(f"time went backwards: {now} < {self._clock}")
        self._clock = now

    def lookup(self, key: Hashable, now: float) -> Optional[CacheEntry]:
        """Return the entry on a hit (refreshing recency), None on a miss."""
        self._advance(now)
        self._stats.lookups += 1
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._stats.hits += 1
        entry.hit_count += 1
        self._touch(entry)
        return entry

    def insert(self, key: Hashable, size: int, origin: ContentOrigin, now: float) -> bool:
        """Insert or refresh an entry, evicting until it fits.

        Returns False (and changes nothing but the rejection counter) when
        the object alone exceeds the cache capacity.  Re-inserting a present
        key refreshes its origin (and, under LRU, its recency) without
        double-counting bytes.
        """
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        self._advance(now)
        if size > self.capacity:
            self._stats.rejections += 1
            return False

        existing = self._entries.get(key)
        if existing is not None:
            self._stats.used += size - existing.size
            existing.size = size
            existing.origin = origin
            if self.policy == "lru":
                self._entries.move_to_end(key)
            self._evict(0, exclude=key)
            return True

        self._evict(size)
        self._entries[key] = CacheEntry(key, size, origin)
        self._stats.used += size
        if origin is ContentOrigin.PREFETCH:
            self._stats.prefetch_insertions += 1
            self._stats.prefetched_bytes += size
        else:
            self._stats.demand_insertions += 1
        return True

    def credit_prefetch_hit(self, key: Hashable, now: float) -> None:
        """Mark a prefetched entry as demanded without counting a lookup.

        Used when a demand request was already counted as a miss but is
        satisfied by an in-flight prefetch arriving at the cache.
        """
        self._advance(now)
        self._touch(self._entries[key])

    def _touch(self, entry: CacheEntry) -> None:
        """Move a demanded entry to the back (LRU) and credit its prefetch."""
        if self.policy == "lru":
            self._entries.move_to_end(entry.key)
        if entry.origin is ContentOrigin.PREFETCH and not entry.prefetch_credited:
            entry.prefetch_credited = True
            self._stats.prefetched_bytes_hit += entry.size

    def _evict(self, incoming: int, exclude: Optional[Hashable] = None) -> None:
        """Evict from the front until ``incoming`` more bytes fit.

        ``exclude`` is never first under LRU (it was just moved to the
        back), so the victim is always the first or second key.
        """
        while self._stats.used + incoming > self.capacity:
            victim = next(k for k in self._entries if k != exclude)
            self._stats.used -= self._entries.pop(victim).size
            self._stats.evictions += 1

    def stats(self) -> CacheStats:
        """Snapshot of all counters (a copy; further ops do not mutate it)."""
        return CacheStats(**asdict(self._stats))

    def entries(self) -> list[CacheEntry]:
        return list(self._entries.values())
