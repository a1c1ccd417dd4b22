"""Bounded TTL-LRU maps, query fingerprinting and hit counters for
the result cache.

:class:`TTLCache` is the storage primitive behind the cache: a plain
``OrderedDict`` in LRU order with an optional per-entry time-to-
live.  It is deliberately not thread-safe — the serving layer touches
cache structures only from the event-loop thread (the same single-
writer discipline :class:`~repro.catalog.handles.CatalogHandle` relies
on).  :class:`CacheCounters` tallies what the cache answered.

:func:`exact_key` is the cache key: a blake2b digest over the
query vector *bytes* plus every request parameter that changes the
answer — ``k``, the index kind, the per-query ``exclude`` and the index
generation.  Two requests that differ in any of those must never share
a cache entry (regression-tested in ``tests/cache``).
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict

import numpy as np


def exact_key(vector: np.ndarray, k: int, kind: str,
              exclude: str | None, generation: int) -> bytes:
    """Fingerprint of one query: blake2b over the query vector's
    float64 bytes and every request parameter that can change the
    served ranking.  ``exclude=None`` and ``exclude=""`` hash
    differently (tagged, not concatenated)."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.ascontiguousarray(vector, dtype=float).tobytes())
    digest.update(f"|k={k}|kind={kind}|gen={generation}|".encode())
    if exclude is None:
        digest.update(b"\x00")
    else:
        digest.update(b"\x01" + exclude.encode("utf-8"))
    return digest.digest()


class TTLCache:
    """A bounded mapping with LRU eviction and optional TTL expiry.

    ``get`` refreshes recency; ``put`` inserts (or overwrites) and
    evicts the least-recently-used entries beyond ``max_entries``.
    Entries older than ``ttl`` seconds are dropped lazily on ``get``.
    ``clock`` is injectable so tests can step time deterministically.
    """

    def __init__(self, max_entries: int, ttl: float | None = None,
                 clock=time.monotonic):
        if (not isinstance(max_entries, int) or isinstance(max_entries, bool)
                or max_entries < 1):
            raise ValueError(f"TTLCache needs max_entries >= 1, got "
                             f"{max_entries!r} (size 0 means: no cache at "
                             f"all)")
        if ttl is not None and (not isinstance(ttl, (int, float))
                                or isinstance(ttl, bool) or ttl <= 0):
            raise ValueError(f"cache ttl must be None or a positive number "
                             f"of seconds, got {ttl!r}")
        self.max_entries = max_entries
        self.ttl = ttl
        self._clock = clock
        self._data: OrderedDict = OrderedDict()
        self.expirations = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        """Side-effect-free membership probe: no recency bump, no lazy
        expiry sweep, no counter mutation.  An expired-but-unswept
        entry reports absent while staying in place for ``get`` to
        reap — ``x in cache`` must never change what a subsequent
        eviction or ``get`` does."""
        entry = self._data.get(key)
        if entry is None:
            return False
        expires_at, _value = entry
        return expires_at is None or self._clock() < expires_at

    def get(self, key):
        """The cached value, or ``None`` on miss/expiry.  A hit moves
        the entry to most-recently-used."""
        entry = self._data.get(key)
        if entry is None:
            return None
        expires_at, value = entry
        if expires_at is not None and self._clock() >= expires_at:
            del self._data[key]
            self.expirations += 1
            return None
        self._data.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        """Insert ``value`` (which must not be ``None`` — that is the
        miss sentinel) as most-recently-used, evicting LRU overflow."""
        if value is None:
            raise ValueError("TTLCache cannot store None (the miss sentinel)")
        expires_at = None if self.ttl is None else self._clock() + self.ttl
        self._data[key] = (expires_at, value)
        self._data.move_to_end(key)
        while len(self._data) > self.max_entries:
            _key, (popped_expiry, _value) = self._data.popitem(last=False)
            # An entry that had already timed out but was never swept by
            # a get() is an expiry, not an eviction — crediting it to
            # evictions would overstate capacity pressure (the counters
            # feed /stats, where operators size --cache-size from them).
            if popped_expiry is not None and self._clock() >= popped_expiry:
                self.expirations += 1
            else:
                self.evictions += 1

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""
        dropped = len(self._data)
        self._data.clear()
        return dropped


class CacheCounters:
    """Hit/miss/bypass tallies for one index's cache.

    Held by the catalog slot's :class:`~repro.catalog.handles.IndexStats`
    (not by the dispatcher that owns the cache) so the counts survive
    LRU eviction of the index itself.  The consistency invariant the
    soak tests pin: ``exact_hits + misses + bypassed == queries_total``.
    """

    __slots__ = ("exact_hits", "misses", "bypassed")

    def __init__(self):
        self.exact_hits = 0
        self.misses = 0
        self.bypassed = 0

    def record(self, event: str, n: int = 1) -> None:
        if event == "exact":
            self.exact_hits += n
        elif event == "miss":
            self.misses += n
        elif event == "bypass":
            self.bypassed += n
        else:
            raise ValueError(f"unknown cache event {event!r}")

    def snapshot(self) -> dict:
        served = self.exact_hits + self.misses
        return {
            "exact_hits": self.exact_hits,
            # Retired tier; the key stays because /stats readers sum it.
            "semantic_hits": 0,
            "misses": self.misses,
            "bypassed": self.bypassed,
            "hit_rate": self.exact_hits / served if served else 0.0,
        }
