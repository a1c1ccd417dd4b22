"""Unit layer: the TTL-LRU primitive and the exact-key fingerprint.

The fingerprint tests pin the latent-hazard fix the cache layer was
born with: a result cache keyed on the query vector alone would serve
request A's ranking to request B whenever they differed only in ``k``,
``exclude``, index kind, or index generation.  Every one of those must
split the key.
"""

import numpy as np
import pytest

from repro.cache import CacheCounters, TTLCache, exact_key


class TestTTLCache:
    def test_get_returns_what_put_stored(self):
        cache = TTLCache(4)
        cache.put(b"a", [1, 2])
        assert cache.get(b"a") == [1, 2]
        assert cache.get(b"missing") is None

    def test_lru_eviction_order(self):
        cache = TTLCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1          # refreshes 'a'
        cache.put("c", 3)                   # evicts 'b', the LRU
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.evictions == 1

    def test_overwrite_does_not_grow(self):
        cache = TTLCache(2)
        cache.put("a", 1)
        cache.put("a", 2)
        assert len(cache) == 1
        assert cache.get("a") == 2

    def test_ttl_expires_entries(self):
        clock = [0.0]
        cache = TTLCache(4, ttl=10.0, clock=lambda: clock[0])
        cache.put("a", 1)
        clock[0] = 9.9
        assert cache.get("a") == 1
        clock[0] = 10.0
        assert cache.get("a") is None
        assert cache.expirations == 1
        assert len(cache) == 0

    def test_overflow_pop_of_expired_entry_counts_as_expiration(self):
        """An entry that timed out but was never swept by a get() and
        is then popped by put()'s overflow loop is an *expiration*, not
        an eviction — the counters feed /stats, where evictions signal
        capacity pressure and must not be inflated by dead entries."""
        clock = [0.0]
        cache = TTLCache(2, ttl=10.0, clock=lambda: clock[0])
        cache.put("a", 1)
        cache.put("b", 2)
        clock[0] = 10.0                     # both are now expired...
        cache.put("c", 3)                   # ...and 'a' pops on overflow
        assert cache.expirations == 1
        assert cache.evictions == 0
        clock[0] = 10.5                     # 'c' (fresh at t=10) still live
        cache.put("d", 4)                   # pops 'b': also expired
        assert cache.expirations == 2
        assert cache.evictions == 0
        cache.put("e", 5)                   # pops 'c': live → real eviction
        assert cache.expirations == 2
        assert cache.evictions == 1

    def test_no_ttl_means_no_expiry(self):
        clock = [0.0]
        cache = TTLCache(4, ttl=None, clock=lambda: clock[0])
        cache.put("a", 1)
        clock[0] = 1e9
        assert cache.get("a") == 1

    def test_clear_reports_dropped_count(self):
        cache = TTLCache(4)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_none_is_rejected_as_a_value(self):
        with pytest.raises(ValueError, match="None"):
            TTLCache(4).put("a", None)

    def test_contains_is_side_effect_free(self):
        """``in`` must not refresh LRU recency: probing 'a' then
        inserting over capacity still evicts 'a' (the true LRU), not
        'b' — a containment check that bumped recency would silently
        reorder eviction."""
        cache = TTLCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert "a" in cache
        cache.put("c", 3)                   # 'a' is still the LRU
        assert cache.get("a") is None
        assert cache.get("b") == 2
        assert cache.get("c") == 3

    def test_contains_does_not_expire_or_count(self):
        """``in`` on an expired entry reports absent without deleting
        it or bumping the ``expirations`` counter; the entry stays in
        place for ``get`` to reap."""
        clock = [0.0]
        cache = TTLCache(4, ttl=10.0, clock=lambda: clock[0])
        cache.put("a", 1)
        clock[0] = 10.0
        assert "a" not in cache
        assert cache.expirations == 0
        assert len(cache) == 1              # still parked, unswept
        assert cache.get("a") is None       # get() does the reaping
        assert cache.expirations == 1
        assert len(cache) == 0

    def test_contains_sees_live_entries(self):
        clock = [0.0]
        cache = TTLCache(4, ttl=10.0, clock=lambda: clock[0])
        cache.put("a", 1)
        clock[0] = 9.9
        assert "a" in cache
        assert "missing" not in cache

    @pytest.mark.parametrize("size,ttl", [(0, None), (-1, None),
                                          (4, 0), (4, -1.0), (4, True)])
    def test_bad_bounds_are_rejected(self, size, ttl):
        with pytest.raises(ValueError):
            TTLCache(size, ttl)


class TestExactKey:
    """The regression suite for the exact-cache hazard: two requests
    differing in anything answer-changing must never share an entry."""

    VEC = np.arange(8, dtype=float)

    def key(self, **overrides):
        params = dict(vector=self.VEC, k=5, kind="table",
                      exclude=None, generation=0)
        params.update(overrides)
        return exact_key(**params)

    def test_identical_requests_share_a_key(self):
        assert self.key() == self.key()
        # dtype/layout normalisation: an int vector of equal values
        # hashes like its float form.
        assert exact_key(np.arange(8), 5, "table", None, 0) == self.key()

    def test_exclude_splits_the_key(self):
        assert self.key(exclude="t00001") != self.key(exclude=None)
        assert self.key(exclude="t00001") != self.key(exclude="t00002")

    def test_empty_string_exclude_differs_from_none(self):
        assert self.key(exclude="") != self.key(exclude=None)

    def test_kind_splits_the_key(self):
        assert self.key(kind="column") != self.key(kind="table")

    def test_k_splits_the_key(self):
        assert self.key(k=6) != self.key(k=5)

    def test_generation_splits_the_key(self):
        assert self.key(generation=1) != self.key(generation=0)

    def test_vector_splits_the_key(self):
        other = self.VEC.copy()
        other[0] += 1e-12
        assert exact_key(other, 5, "table", None, 0) != self.key()


class TestCacheCounters:
    def test_events_tally_and_snapshot(self):
        counters = CacheCounters()
        counters.record("exact", 3)
        counters.record("miss")
        counters.record("bypass", 3)
        snap = counters.snapshot()
        assert snap["exact_hits"] == 3
        assert snap["semantic_hits"] == 0    # retired tier, key kept
        assert snap["misses"] == 1
        assert snap["bypassed"] == 3
        assert snap["hit_rate"] == pytest.approx(3 / 4)

    def test_unknown_event_is_rejected(self):
        for event in ("hit", "semantic"):
            with pytest.raises(ValueError, match="unknown cache event"):
                CacheCounters().record(event)

    def test_empty_hit_rate_is_zero(self):
        assert CacheCounters().snapshot()["hit_rate"] == 0.0
