"""Deliberately naive cache used as an oracle for the real implementation.

Keeps entries in a plain list and rescans it for every decision, so its
behavior follows the eviction rules by direct transcription rather than by
sharing code with semcache.cache:

* LRU evicts the entry touched least recently; a touch is an insertion, a
  hit, a refreshing re-insert or a prefetch credit.
* FIFO evicts the entry inserted first; a refresh keeps its place.
* Entries touched (or inserted) at the same time go by operation order.
"""


class RefEntry:
    def __init__(self, key, size, origin, now, seq):
        self.key = key
        self.size = size
        self.origin = origin
        self.inserted_at = (now, seq)
        self.last_access = (now, seq)
        self.hit_count = 0
        self.credited = False


class ReferenceCache:
    def __init__(self, capacity, policy="lru"):
        self.capacity = capacity
        self.policy = policy
        self.items = []
        self.seq = 0  # one number per operation, for ties in time
        self.lookups = 0
        self.hits = 0
        self.evictions = 0
        self.rejections = 0
        self.prefetched_bytes = 0
        self.prefetched_bytes_hit = 0

    def _next_seq(self):
        self.seq += 1
        return self.seq

    def _find(self, key):
        for item in self.items:
            if item.key == key:
                return item
        return None

    def used(self):
        return sum(i.size for i in self.items)

    def keys(self):
        return sorted(str(i.key) for i in self.items)

    def _remove_victim(self, exclude=None):
        candidates = [i for i in self.items if i.key != exclude]
        if self.policy == "lru":
            victim = sorted(candidates, key=lambda i: i.last_access)[0]
        else:
            victim = sorted(candidates, key=lambda i: i.inserted_at)[0]
        self.items.remove(victim)
        self.evictions += 1

    def _credit(self, item):
        if item.origin == "prefetch" and not item.credited:
            item.credited = True
            self.prefetched_bytes_hit += item.size

    def lookup(self, key, now):
        seq = self._next_seq()
        self.lookups += 1
        item = self._find(key)
        if item is None:
            return False
        self.hits += 1
        item.last_access = (now, seq)
        item.hit_count += 1
        self._credit(item)
        return True

    def insert(self, key, size, origin, now):
        seq = self._next_seq()
        if size > self.capacity:
            self.rejections += 1
            return False
        item = self._find(key)
        if item is not None:
            item.size = size
            item.origin = origin
            item.last_access = (now, seq)
            while self.used() > self.capacity:
                self._remove_victim(exclude=key)
            return True
        while self.used() + size > self.capacity:
            self._remove_victim()
        self.items.append(RefEntry(key, size, origin, now, seq))
        if origin == "prefetch":
            self.prefetched_bytes += size
        return True

    def credit_prefetch_hit(self, key, now):
        """Touch a cached entry and credit it without counting a lookup."""
        seq = self._next_seq()
        item = self._find(key)
        if item is None:
            raise KeyError(key)
        item.last_access = (now, seq)
        self._credit(item)
