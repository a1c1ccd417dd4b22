"""Micro-batching dispatcher: many concurrent requests, one GEMM.

The serving hot path is the same observation that motivated
``query_many``: scoring Q queries in one similarity GEMM per shard is
far cheaper than Q separate passes.  A server receives those Q queries
*concurrently* rather than as one matrix, so the dispatcher coalesces
them: requests enqueue into a pending list, and a *tick* — fired when
``max_batch`` queries are waiting or ``max_wait_ms`` has elapsed since
the first enqueue, whichever comes first — stacks them into one matrix
and runs one :meth:`query_many` call per distinct ``k`` in the batch.

Grouping by ``k`` is a correctness requirement, not a convenience: the
brute-force fallback triggers when a query's LSH candidate count is
below *its* ``k``, so folding a ``k=2`` query into a ``k=10`` batch
could flip it onto the brute-force path (or off it) and change its
top-2.  Within one ``k`` group, ``query_many`` scores every row
exactly as it would on its own (the kernels are shape-independent) —
so a served ranking is pinned to what the offline CLI path returns, no
matter which requests it was batched with.

The actual GEMMs run in the event loop's default thread-pool executor:
NumPy releases the GIL inside them, so the loop keeps accepting and
coalescing the next tick's requests while the current tick computes.
Results are demultiplexed back onto per-request futures by position —
each request sees exactly its own rows and nothing else (the soak tests
hammer this with duplicate-vector ties from many threads).

The dispatcher owns its index's exact result cache, on the event-loop
thread only: rows are looked up at submit (a hit never joins a tick)
and answers stored at demux.  A lookup that sees ``index.generation``
move clears the cache, the generation is part of every key, and an
answer is stored only if the index is still at its lookup's generation.
"""

from __future__ import annotations

import asyncio
from functools import partial

import numpy as np

from repro.cache import CacheCounters, TTLCache, exact_key


class BacklogFull(RuntimeError):
    """The dispatcher's pending queue is at ``max_backlog``: overload
    must shed load (HTTP 429 + ``Retry-After``), not grow the queue
    toward OOM.  The serving layer maps this by the ``http_status``
    attribute, the same duck-typed contract cluster errors use."""

    http_status = 429
    retry_after = 1

    def __init__(self, pending: int, limit: int, n_queries: int):
        super().__init__(
            f"dispatcher backlog is full ({pending} queries pending, "
            f"max_backlog={limit}; this request carries "
            f"{n_queries}) — retry shortly")
        self.pending = pending
        self.limit = limit


class _Pending:
    """One enqueued query awaiting its tick, with the cache key its
    lookup missed under and that lookup's index generation (``None``
    when the cache is off or bypassed; hits never become ``_Pending``)."""

    __slots__ = ("vector", "k", "exclude", "future", "fingerprint",
                 "generation")

    def __init__(self, vector, k, exclude, future, fingerprint, generation):
        self.vector = vector
        self.k = k
        self.exclude = exclude
        self.future = future
        self.fingerprint = fingerprint
        self.generation = generation


class MicroBatchDispatcher:
    """Coalesce concurrent queries into ``query_many`` ticks.

    Parameters
    ----------
    index:
        Anything with the ``query_many(matrix, k=, excludes=, jobs=)``
        surface plus the ``kind`` and ``generation`` the result cache
        keys on — a :class:`~repro.index.index.VectorIndex` subclass, a
        :class:`~repro.index.sharded.ShardedIndex` or a cluster
        coordinator's remote index.
    config:
        The :class:`~repro.serve.config.ServeConfig` whose
        ``max_batch``/``max_wait_ms`` fire a tick, whose ``jobs`` goes
        to every ``query_many``, whose ``max_backlog`` bounds the
        pending queue (see :meth:`submit_many`) and whose
        ``cache_size``/``cache_ttl`` size the result cache (``cache``
        is ``None`` when ``cache_size`` is 0).
    stats:
        Sinks whose ``record_batch(size)`` counts every tick.
    counters:
        The :class:`~repro.cache.CacheCounters` the cache tallies its
        hits, misses and bypasses into (a fresh one by default).  Pass
        one that outlives the dispatcher to keep counts across reopens.
    """

    def __init__(self, index, config, stats=(), counters=None):
        self.index = index
        self.config = config
        self.stats = tuple(stats)
        self.counters = CacheCounters() if counters is None else counters
        self.cache = (TTLCache(config.cache_size, config.cache_ttl)
                      if config.cache_size else None)
        #: The index generation the cache's entries were computed at,
        #: re-synced (clearing the cache if it moved) at every lookup.
        self.generation = index.generation
        #: Queries refused by backpressure (surfaced in ``/stats``).
        self.rejected_total = 0
        self._pending: list[_Pending] = []
        self._timer: asyncio.TimerHandle | None = None
        self._inflight: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # Introspection (stats endpoint / drain loop)
    # ------------------------------------------------------------------
    @property
    def n_pending(self) -> int:
        return len(self._pending)

    @property
    def n_inflight(self) -> int:
        return len(self._inflight)

    # ------------------------------------------------------------------
    # Enqueue
    # ------------------------------------------------------------------
    async def submit_many(self, matrix: np.ndarray, k: int,
                          excludes: list[str | None],
                          no_cache: bool = False) -> list[list]:
        """Enqueue every row of ``matrix`` and await all results.

        Rows join the shared pending list individually, so one client's
        batch coalesces with other clients' concurrent singles; results
        come back aligned with the rows.  A failed tick propagates its
        exception to every affected caller.  With the cache on, exact
        hits resolve here without joining a tick; ``no_cache`` rows
        skip the cache entirely (neither read nor written) and are
        counted as bypassed.

        With ``max_backlog`` set, a request that would overflow the
        pending queue raises :class:`BacklogFull` before touching any
        state — the backpressure valve, all-or-nothing, answered as 429
        + ``Retry-After``.  It counts the request's full row count even
        though exact cache hits never join the queue: at rejection time
        the backlog is already saturated, so protecting memory wins
        over admitting maybe-hits.
        """
        config = self.config
        if (config.max_backlog is not None
                and len(self._pending) + len(matrix) > config.max_backlog):
            pending = len(self._pending)
            self.rejected_total += len(matrix)
            # Hurry the queue along so the client's Retry-After has a
            # fighting chance of being long enough.
            self.flush_now()
            raise BacklogFull(pending, config.max_backlog, len(matrix))
        loop = asyncio.get_running_loop()
        futures: list[asyncio.Future] = []
        cache = None if no_cache else self.cache
        if no_cache and self.cache is not None:
            self.counters.record("bypass", len(matrix))
        for vector, exclude in zip(matrix, excludes):
            future = loop.create_future()
            futures.append(future)
            fingerprint = generation = None
            if cache is not None:
                # Read per row: a lifecycle op between two rows of one
                # request must clear the cache before the next lookup.
                generation = self.index.generation
                if generation != self.generation:
                    cache.clear()
                    self.generation = generation
                fingerprint = exact_key(vector, k, self.index.kind,
                                        exclude, generation)
                hits = cache.get(fingerprint)
                if hits is not None:
                    self.counters.record("exact")
                    future.set_result(hits)
                    continue
                self.counters.record("miss")
            self._pending.append(_Pending(vector, k, exclude, future,
                                          fingerprint, generation))
            if len(self._pending) >= config.max_batch:
                self.flush_now()
            elif self._timer is None:
                self._timer = loop.call_later(config.max_wait_ms / 1000.0,
                                              self.flush_now)
        return await asyncio.gather(*futures)

    # ------------------------------------------------------------------
    # Ticks
    # ------------------------------------------------------------------
    def flush_now(self) -> None:
        """Start a tick for everything currently pending (no-op when
        nothing is).  Safe to call at any time — the drain loop uses it
        to hurry stragglers out during shutdown."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        task = asyncio.get_running_loop().create_task(self._run_batch(batch))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _run_batch(self, batch: list[_Pending]) -> None:
        groups: dict[int, list[_Pending]] = {}
        for item in batch:
            groups.setdefault(item.k, []).append(item)
        # Groups run concurrently (gather, not a sequential loop): a
        # mixed-k tick's latency is the slowest group's GEMM, not the
        # sum of all of them.
        await asyncio.gather(*(self._run_group(k, members)
                               for k, members in groups.items()))

    async def _run_group(self, k: int, members: list[_Pending]) -> None:
        """One tick's per-``k`` group: one ``query_many`` call — one
        GEMM pass — for all its members, cached or not."""
        loop = asyncio.get_running_loop()
        matrix = np.stack([item.vector for item in members])
        excludes = [item.exclude for item in members]
        for sink in self.stats:
            sink.record_batch(len(members))
        try:
            results = await loop.run_in_executor(
                None, partial(self.index.query_many, matrix, k=k,
                              excludes=excludes, jobs=self.config.jobs))
        except Exception as error:
            for item in members:
                if not item.future.done():
                    item.future.set_exception(error)
        else:
            # Demux strictly by position: row i of the group's matrix
            # is member i's query, so member i gets result i.  Stores
            # happen here — back on the event-loop thread — honoring
            # the cache's single-writer contract, and only while the
            # index is still at the generation the lookup saw.
            for item, hits in zip(members, results):
                if (item.fingerprint is not None
                        and item.generation == self.index.generation):
                    self.cache.put(item.fingerprint, hits)
                if not item.future.done():
                    item.future.set_result(hits)

    async def drain(self) -> None:
        """Flush pending queries and wait for every in-flight tick —
        the dispatcher half of graceful shutdown."""
        self.flush_now()
        while self._inflight or self._pending:
            self.flush_now()
            if self._inflight:
                await asyncio.gather(*list(self._inflight),
                                     return_exceptions=True)
            else:
                # A submitter raced in between flush and here; yield so
                # it lands, then loop.
                await asyncio.sleep(0)
