"""Exact result cache over a :class:`VectorIndex`/:class:`ShardedIndex`
(or anything else with ``query_many``, ``kind`` and ``generation`` — a
:class:`~repro.cluster.coordinator.RemoteShardedIndex` included).

One tier: a blake2b fingerprint of (query vector bytes, k, kind,
exclude, generation) maps straight to the served ``SearchHit`` list.  A
hit replays exactly what the uncached path returned for the identical
request; a miss runs the plain ``index.query_many`` and stores its
answer.

Invalidation is by generation.  The engine snapshots
``index.generation`` and clears the cache the moment it observes a
different value; the generation is *also* folded into every key, so
even a stale entry that somehow survived a clear is structurally
unreachable, and a result computed against a generation that has since
moved is never stored.

Threading contract (mirrors the serving layer's single-writer
discipline): ``lookup``/``store``/``note_bypass`` run on the event-loop
thread only; the index call for the misses is the GEMM-heavy step and
runs in an executor thread.  The one composition of the three is
:class:`~repro.serve.dispatcher.MicroBatchDispatcher`: lookup at
submit, one ``query_many`` per tick for the misses, store at demux.
"""

from __future__ import annotations

import time

import numpy as np

from .result_cache import TTLCache, exact_key


class CacheCounters:
    """Hit/miss/bypass tallies for one index's cache.

    Held by the catalog slot's :class:`IndexStats` (not by the engine)
    so the counts survive LRU eviction of the index itself.  The
    consistency invariant the soak tests pin: ``exact_hits + misses +
    bypassed == queries_total``.
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


class QueryPlan:
    """What :meth:`CachedQueryEngine.lookup` learned about one missed
    query: its fingerprint and the generation it was computed at (a
    :meth:`~CachedQueryEngine.store` against a moved generation is
    silently dropped)."""

    __slots__ = ("fingerprint", "generation")

    def __init__(self, fingerprint: bytes, generation: int):
        self.fingerprint = fingerprint
        self.generation = generation


class CachedQueryEngine:
    """Exact result cache in front of one index (see module doc)."""

    def __init__(self, index, *, max_entries: int, ttl: float | None = None,
                 counters: CacheCounters | None = None,
                 clock=time.monotonic):
        self.index = index
        self.exact = TTLCache(max_entries, ttl, clock)
        self.counters = CacheCounters() if counters is None else counters
        self._generation = index.generation

    # -- loop-thread surface -------------------------------------------

    @property
    def generation(self) -> int:
        """The index generation as of the last lookup/sync."""
        return self._generation

    def _sync_generation(self) -> int:
        generation = self.index.generation
        if generation != self._generation:
            self.exact.clear()
            self._generation = generation
        return generation

    def note_bypass(self, n: int = 1) -> None:
        """Count ``n`` queries that asked for ``no_cache`` (they neither
        read nor write the cache)."""
        self.counters.record("bypass", n)

    def lookup(self, vector: np.ndarray, k: int, exclude: str | None
               ) -> tuple[list | None, QueryPlan | None]:
        """``(hits, None)`` on a hit, else ``(None, plan)`` — the plan
        is what :meth:`store` files the answer under.  Counts exactly
        one of exact/miss."""
        generation = self._sync_generation()
        fingerprint = exact_key(vector, k, self.index.kind,
                                exclude, generation)
        hits = self.exact.get(fingerprint)
        if hits is not None:
            self.counters.record("exact")
            return hits, None
        self.counters.record("miss")
        return None, QueryPlan(fingerprint, generation)

    def store(self, plan: QueryPlan, hits: list) -> None:
        """Insert one query's results under the plan's key.  Dropped if
        the generation moved since the lookup — results computed
        against an old index state must never become reachable."""
        if (plan.generation != self._generation
                or plan.generation != self.index.generation):
            return
        self.exact.put(plan.fingerprint, hits)

    def clear(self) -> None:
        """Drop every entry (counters are untouched — they belong to
        the stats layer)."""
        self.exact.clear()

    def sizes(self) -> dict:
        """Entry counts and churn totals for ``/stats``."""
        return {
            "exact_entries": len(self.exact),
            # Retired tier; the key stays for /stats readers.
            "semantic_entries": 0,
            "evictions": self.exact.evictions,
            "expirations": self.exact.expirations,
        }
