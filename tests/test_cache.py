import random

import pytest
from hypothesis import example, given, settings, strategies as st

from semcache.cache import Cache, ContentOrigin, TimeRegression

from reference_cache import ReferenceCache, cache_state, outcome

D = ContentOrigin.DEMAND
P = ContentOrigin.PREFETCH


class TestLookup:
    def test_empty_cache_miss(self):
        c = Cache(1000)
        assert c.lookup("k", 0) is None
        s = c.stats()
        assert (s.lookups, s.hits) == (1, 0)

    def test_insert_then_hit(self):
        c = Cache(1000)
        c.insert("k", 100, D, 0)
        assert c.lookup("k", 1) is not None
        s = c.stats()
        assert (s.hits, s.lookups) == (1, 1)

    def test_lru_eviction_then_miss(self):
        # Capacity for three; inserting a fourth evicts the least recent.
        c = Cache(300)
        for t, k in enumerate(["k1", "k2", "k3"]):
            c.insert(k, 100, D, t)
        c.insert("k4", 100, D, 3)
        assert c.lookup("k1", 4) is None
        assert c.lookup("k2", 5) is not None

    def test_time_regression(self):
        c = Cache(100)
        c.lookup("k", 10)
        with pytest.raises(TimeRegression):
            c.lookup("k", 9)

    @pytest.mark.parametrize(
        "call",
        [
            lambda c, now: c.lookup("k", now),
            lambda c, now: c.insert("k", 10, D, now),
            lambda c, now: c.credit_prefetch_hit("k", now),
        ],
        ids=["lookup", "insert", "credit"],
    )
    def test_every_timed_operation_refuses_a_regression(self, call):
        c = Cache(100)
        c.insert("k", 10, P, 10)
        before = cache_state(c)
        with pytest.raises(TimeRegression) as exc:
            call(c, 9)
        assert str(exc.value) == "time went backwards: 9 < 10"
        assert cache_state(c) == before

    def test_refused_credit_keeps_the_clock(self):
        c = Cache(1000)
        with pytest.raises(KeyError):
            c.credit_prefetch_hit("absent", 10)
        assert cache_state(c) == cache_state(Cache(1000))
        assert c.lookup("k", 5) is None

    def test_rejected_insert_advances_the_clock(self):
        c = Cache(100)
        assert c.insert("big", 101, D, 10) is False
        with pytest.raises(TimeRegression, match="time went backwards: 9 < 10"):
            c.lookup("k", 9)


class TestInsert:
    def test_oversized_rejected(self):
        c = Cache(1000)
        assert c.insert("k", 1001, D, 0) is False
        assert c.used == 0 and len(c) == 0
        assert c.stats().rejections == 1

    def test_object_of_exactly_the_capacity_stored(self):
        c = Cache(1000)
        assert c.insert("k", 1000, D, 0) is True
        assert c.used == 1000 and "k" in c
        assert c.stats().rejections == 0

    @pytest.mark.parametrize(
        "capacity, policy, match",
        [(0, "lru", "capacity must be positive"), (1, "mru", "unknown eviction policy")],
    )
    def test_invalid_cache_rejected(self, capacity, policy, match):
        with pytest.raises(ValueError, match=match):
            Cache(capacity, policy)

    def test_non_positive_size_rejected(self):
        with pytest.raises(ValueError, match="size must be positive"):
            Cache(1000).insert("k", 0, D, 0)

    def test_lru_respects_recency(self):
        # A B C inserted, A touched, D inserted -> B is the LRU victim.
        c = Cache(300)
        c.insert("A", 100, D, 0)
        c.insert("B", 100, D, 1)
        c.insert("C", 100, D, 2)
        assert c.lookup("A", 3) is not None
        c.insert("D", 100, D, 4)
        assert "B" not in c
        assert all(k in c for k in ("A", "C", "D"))

    def test_reinsert_no_double_count(self):
        c = Cache(1000)
        c.insert("k", 100, P, 0)
        c.insert("k", 100, P, 1)
        assert c.used == 100
        assert c.stats().prefetched_bytes == 100

    @pytest.mark.parametrize("size", [200, 1001])
    def test_resize_refused(self, size):
        # A resize is refused before the clock moves, even one to more than
        # the capacity, which is not counted as a rejection.
        c = Cache(1000)
        c.insert("k", 100, D, 5)
        before = cache_state(c)
        with pytest.raises(ValueError, match=f"cached key 'k' has size 100, not {size}"):
            c.insert("k", size, D, 10)
        assert cache_state(c) == before
        assert c.lookup("k", 6) is not None

    def test_reinsert_refreshes_recency_and_origin(self):
        c = Cache(200)
        c.insert("A", 100, P, 0)
        c.insert("B", 100, D, 1)
        c.insert("A", 100, D, 2)  # refresh A; B is now LRU
        c.insert("C", 100, D, 3)
        assert "B" not in c and "A" in c

    def test_fifo_policy(self):
        c = Cache(300, policy="fifo")
        c.insert("A", 100, D, 0)
        c.insert("B", 100, D, 1)
        c.insert("C", 100, D, 2)
        assert c.lookup("A", 3) is not None  # recency must not matter
        c.insert("D", 100, D, 4)
        assert "A" not in c


class TestStats:
    def test_fresh_cache_zeroes(self):
        s = Cache(10).stats()
        assert s.lookups == s.hits == s.prefetched_bytes == s.prefetched_bytes_hit == 0

    def test_unused_prefetch_ratio_one(self):
        c = Cache(1000)
        c.insert("k", 500, P, 0)
        s = c.stats()
        assert (s.prefetched_bytes, s.prefetched_bytes_hit) == (500, 0)

    def test_half_useful_prefetch(self):
        c = Cache(2000)
        c.insert("a", 500, P, 0)
        c.insert("b", 500, P, 1)
        c.lookup("a", 2)
        c.lookup("a", 3)  # second hit must not double-credit
        s = c.stats()
        assert s.prefetched_bytes == 1000
        assert s.prefetched_bytes_hit == 500

    def test_credit_without_lookup(self):
        c = Cache(1000)
        c.insert("k", 500, P, 0)
        c.credit_prefetch_hit("k", 1)
        s = c.stats()
        assert s.lookups == 0
        assert s.prefetched_bytes_hit == 500

    @staticmethod
    def _filled(policy, refresh):
        """A cache holding prefetched and demanded entries, "k" among them
        as a prefetch if ``refresh``."""
        c = Cache(1000, policy)
        c.insert("a", 100, P, 0)
        if refresh:
            c.insert("k", 100, P, 1)
        c.insert("b", 100, D, 2)
        c.lookup("a", 3)
        return c

    def test_resized_prefetch_credits_no_uncounted_bytes(self):
        # Had the fourth call resized "k", the credit would add its new 200
        # bytes to prefetched_bytes_hit, where prefetched_bytes counted 100.
        c = Cache(1000)
        c.insert("a", 100, P, 0)
        c.insert("k", 100, P, 1)
        c.lookup("a", 3)
        with pytest.raises(ValueError):
            c.insert("k", 200, P, 4)
        c.credit_prefetch_hit("k", 4)
        s = c.stats()
        assert (s.prefetched_bytes, s.prefetched_bytes_hit) == (200, 200)

    @pytest.mark.parametrize("refresh", [False, True], ids=["new", "refresh"])
    @pytest.mark.parametrize("policy", ["lru", "fifo"])
    def test_credit_after_demand_insert_changes_nothing(self, policy, refresh):
        c = self._filled(policy, refresh)
        c.insert("k", 100, D, 4)
        before = cache_state(c)
        c.credit_prefetch_hit("k", 4)
        assert cache_state(c) == before

    @pytest.mark.parametrize("refresh", [False, True], ids=["new", "refresh"])
    @pytest.mark.parametrize("policy", ["lru", "fifo"])
    def test_second_credit_of_a_prefetch_changes_nothing(self, policy, refresh):
        c = self._filled(policy, refresh)
        c.insert("k", 100, P, 4)
        c.credit_prefetch_hit("k", 4)
        before = cache_state(c)
        assert ("k", 100, P, True) in before[1]
        c.credit_prefetch_hit("k", 4)
        assert cache_state(c) == before

    def test_counters_monotone(self):
        c = Cache(250)
        rng = random.Random(5)
        prev = c.stats()
        for t in range(200):
            if rng.random() < 0.5:
                before = cache_state(c)
                key, size = f"k{rng.randint(0, 20)}", rng.randint(1, 100)
                if outcome(c.insert, key, size, rng.choice([D, P]), t) is ValueError:
                    assert cache_state(c) == before
            else:
                c.lookup(f"k{rng.randint(0, 20)}", t)
            s = c.stats()
            for name in (
                "lookups",
                "hits",
                "demand_insertions",
                "prefetch_insertions",
                "evictions",
                "prefetched_bytes",
                "prefetched_bytes_hit",
            ):
                assert getattr(s, name) >= getattr(prev, name)
            assert s.hits <= s.lookups
            assert s.prefetched_bytes_hit <= s.prefetched_bytes
            prev = s


ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "lookup", "credit"]),
        st.integers(min_value=0, max_value=12),  # key index
        st.integers(min_value=1, max_value=120),  # size
        st.booleans(),  # prefetch?
    ),
    max_size=60,
)


def timed(sequence, ops_per_tick):
    """Give each operation a time; several operations share each tick."""
    return [(t // ops_per_tick, *op) for t, op in enumerate(sequence)]


class TestAgainstReference:
    def _run_pair(self, sequence, capacity, policy):
        real = Cache(capacity, policy)
        ref = ReferenceCache(capacity, policy)
        for now, op, ki, size, pf in sequence:
            key = f"k{ki}"
            if op == "lookup":
                r1 = real.lookup(key, now) is not None
                r2 = ref.lookup(key, now)
            else:
                # A resize or a credit of an absent key is refused by both,
                # and changes nothing.
                before = cache_state(real)
                if op == "insert":
                    origin = P if pf else D
                    r1 = outcome(real.insert, key, size, origin, now)
                    r2 = outcome(ref.insert, key, size, origin.value, now)
                else:
                    r1 = outcome(real.credit_prefetch_hit, key, now)
                    r2 = outcome(ref.credit_prefetch_hit, key, now)
                if r1 in (ValueError, KeyError):
                    assert cache_state(real) == before
            assert r1 == r2
            assert real.used <= capacity
            assert sorted(str(e.key) for e in real.entries()) == ref.keys()
        s = real.stats()
        assert (s.lookups, s.hits, s.evictions) == (ref.lookups, ref.hits, ref.evictions)
        assert s.prefetched_bytes == ref.prefetched_bytes
        assert s.prefetched_bytes_hit == ref.prefetched_bytes_hit
        assert s.used == ref.used()

    @given(
        sequence=ops,
        policy=st.sampled_from(["lru", "fifo"]),
        ops_per_tick=st.sampled_from([1, 4, 60]),
    )
    # One tick for all: the victim of the third insert is decided by a tie.
    @example([("insert", 5, 100, False), ("insert", 1, 100, False),
              ("insert", 7, 300, False)], "lru", 60)
    @example([("insert", 5, 100, False), ("insert", 1, 100, False),
              ("lookup", 5, 1, False), ("insert", 7, 300, False)], "fifo", 60)
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, sequence, policy, ops_per_tick):
        self._run_pair(timed(sequence, ops_per_tick), capacity=400, policy=policy)

    def test_thousand_random_sequences(self):
        # Distinct times and four operations per tick, under both policies.
        rng = random.Random(99)
        for policy in ("lru", "fifo"):
            for ops_per_tick in (1, 4):
                for _ in range(1000):
                    seq = [
                        (
                            rng.choice(["insert", "lookup", "credit"]),
                            rng.randint(0, 10),
                            rng.randint(1, 150),
                            rng.random() < 0.4,
                        )
                        for _ in range(rng.randint(5, 40))
                    ]
                    self._run_pair(
                        timed(seq, ops_per_tick),
                        capacity=rng.choice([200, 400, 800]),
                        policy=policy,
                    )
