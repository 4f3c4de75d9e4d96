"""Byte-capacity content cache with recency eviction and prefetch accounting.

Keys are opaque; the simulator keys every cache by entity IRI in both
modes.  Every entry remembers whether it was inserted on demand or by a
prefetch, so the useless-prefetch ratio (prefetched bytes never served to
anyone) can be reported per run.

A cached key keeps the size it was stored with: ``insert`` refuses to
resize it.  So only the insertion of a new key evicts, and the order of
the entries is the eviction order: each eviction takes the front entry in
O(1).  Under LRU every touch (a hit, a refreshing re-insert or a prefetch
credit) moves the entry to the back; under FIFO entries never move, so a
refresh keeps its place.  Entries touched at the same time are therefore
evicted in operation order.  A refused call (a bad size, a resize, a
regressing time or a credit of an absent key) changes nothing.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass, asdict
from typing import Hashable, Optional


EVICTION_POLICIES = ("lru", "fifo")


class CacheError(Exception):
    pass


class TimeRegression(CacheError):
    """A timestamp went backwards relative to an earlier operation."""


class ContentOrigin(enum.Enum):
    DEMAND = "demand"
    PREFETCH = "prefetch"


_PREFETCH = ContentOrigin.PREFETCH


@dataclass
class CacheEntry:
    key: Hashable
    size: int
    origin: ContentOrigin
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


class Cache:
    """Single-writer byte-capacity cache with LRU or FIFO eviction."""

    def __init__(self, capacity: int, policy: str = "lru"):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if policy not in EVICTION_POLICIES:
            raise ValueError(f"unknown eviction policy {policy!r}")
        self.capacity = capacity
        self.policy = policy
        self._lru = policy == "lru"
        self._entries: OrderedDict[Hashable, CacheEntry] = OrderedDict()
        self._clock = 0.0
        self._stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    @property
    def used(self) -> int:
        return self._stats.used

    def _advance(self, now: float) -> None:
        """Move the clock to ``now``, refusing a regression.  ``lookup`` and
        ``insert`` write the check out and call this only to raise."""
        if now < self._clock:
            raise TimeRegression(f"time went backwards: {now} < {self._clock}")
        self._clock = now

    def lookup(self, key: Hashable, now: float) -> Optional[CacheEntry]:
        """Return the entry on a hit (refreshing recency), None on a miss."""
        # ``_advance`` and ``credit_prefetch_hit``'s touch, written out: a
        # call costs more.
        if now < self._clock:
            self._advance(now)
        self._clock = now
        stats = self._stats
        stats.lookups += 1
        entry = self._entries.get(key)
        if entry is None:
            return None
        stats.hits += 1
        if self._lru:
            self._entries.move_to_end(key)
        if entry.origin is _PREFETCH and not entry.prefetch_credited:
            entry.prefetch_credited = True
            stats.prefetched_bytes_hit += entry.size
        return entry

    def insert(self, key: Hashable, size: int, origin: ContentOrigin, now: float) -> bool:
        """Insert a new entry, evicting from the front until it fits, or
        refresh a cached one.

        Re-inserting a cached key with the size it was stored with refreshes
        its origin (and, under LRU, its recency) without double-counting
        bytes; any other size raises ``ValueError``.  Returns False when a
        new object alone exceeds the cache capacity; such a rejection changes
        nothing but the rejection counter and the clock, which still moves
        to ``now``.
        """
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        entries = self._entries
        existing = entries.get(key)
        if existing is not None and existing.size != size:
            raise ValueError(f"cached key {key!r} has size {existing.size}, not {size}")
        if now < self._clock:  # ``_advance``, written out
            self._advance(now)
        self._clock = now
        if existing is not None:
            existing.origin = origin
            if self._lru:
                entries.move_to_end(key)
            return True

        stats = self._stats
        capacity = self.capacity
        if size > capacity:
            stats.rejections += 1
            return False
        used = stats.used + size
        while used > capacity:
            used -= entries.popitem(last=False)[1].size
            stats.evictions += 1
        stats.used = used
        entries[key] = CacheEntry(key, size, origin)
        if origin is _PREFETCH:
            stats.prefetch_insertions += 1
            stats.prefetched_bytes += size
        else:
            stats.demand_insertions += 1
        return True

    def credit_prefetch_hit(self, key: Hashable, now: float) -> None:
        """Mark a cached entry as demanded without counting a lookup: move it
        to the back (LRU) and credit its prefetch once.

        Used when a demand request was already counted as a miss but is
        satisfied by an in-flight prefetch arriving at the cache.  Raises
        ``KeyError`` for an absent key.
        """
        entry = self._entries[key]
        self._advance(now)
        if self._lru:
            self._entries.move_to_end(key)
        if entry.origin is _PREFETCH and not entry.prefetch_credited:
            entry.prefetch_credited = True
            self._stats.prefetched_bytes_hit += entry.size

    def stats(self) -> CacheStats:
        """Snapshot of all counters (a copy; further ops do not mutate it)."""
        return CacheStats(**asdict(self._stats))

    def entries(self) -> list[CacheEntry]:
        return list(self._entries.values())
