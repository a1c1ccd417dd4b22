"""Lazy, LRU-bounded open handles over a catalog's indexes.

:class:`CatalogHandle` is what the retrieval server actually holds: it
maps every catalog entry to an :class:`IndexSlot` and opens entries
only when a query routes to them (``open_index(mmap=True)`` makes that
cheap — no vector data is read).  An optional ``max_open`` cap bounds
how many indexes are resident at once: exceeding it evicts the
least-recently-used *idle* slot.  Because opens are memory-mapped,
eviction is purely a cache decision — a reopened index returns
bit-identical rankings to its first open (property-tested), so the cap
trades reopen latency for memory and nothing else.

Each slot gets its **own** :class:`~repro.serve.dispatcher.
MicroBatchDispatcher`, created with the index on first use: distinct
indexes never share batch ticks, so one entry's traffic can never ride
(or delay) another's GEMM, and per-index batch shapes stay observable.
The dispatcher binds the open index object and owns its result cache,
so both live and die with the open handle; the slot's
:class:`IndexStats` survives eviction, which is how ``/stats`` can
report lifetime opens/evictions/queries/cache hits per entry.

Everything here runs on the server's event-loop thread (the same
single-writer discipline as :class:`~repro.serve.stats.ServerStats`),
so no locks are needed.

**Per-process by construction.**  Under pre-fork serving
(``serve --workers N``, :mod:`repro.serve.prefork`) every worker
builds its own ``CatalogHandle`` *after* the fork, so slots,
dispatchers, result caches, LRU-eviction state, and counters are all
strictly per-worker: a cache entry populated in one worker is never
visible in another, one worker's eviction decision cannot close a
sibling's index, and dispatcher queues never interleave queries from
two processes.  Nothing in this module is fork-aware and nothing needs
to be — there is no shared mutable state to protect.  What *is* shared
across workers is the read-only layer underneath: the mmapped shard
files, whose pages the kernel cache keeps resident exactly once for
the whole fleet.  Pinned by ``tests/catalog/test_worker_isolation.py``.
"""

from __future__ import annotations

from pathlib import Path

from repro.cache import CacheCounters

from .catalog import Catalog, CatalogEntry


class IndexStats:
    """Lifetime per-entry counters; survives eviction/reopen cycles.

    ``cache`` is the entry's :class:`~repro.cache.CacheCounters`, which
    every dispatcher the slot builds tallies into: it lives *here*
    rather than on the dispatcher that owns the cache so hit/miss/bypass
    tallies survive eviction (the dispatcher and its cache are dropped
    with the index — each reopen gets a cold cache but warm counters).
    The invariant the soak tests pin: ``exact_hits + misses + bypassed
    == queries_total``."""

    __slots__ = ("requests_total", "queries_total", "opens", "evictions",
                 "batches_dispatched", "max_batch_size", "_batch_size_sum",
                 "cache")

    def __init__(self):
        self.requests_total = 0
        self.queries_total = 0
        self.opens = 0
        self.evictions = 0
        self.batches_dispatched = 0
        self.max_batch_size = 0
        self._batch_size_sum = 0
        self.cache = CacheCounters()

    def record_queries(self, n: int) -> None:
        """One routed request carrying ``n`` queries."""
        self.requests_total += 1
        self.queries_total += n

    def record_batch(self, size: int) -> None:
        """One micro-batch tick dispatched for this entry (the slot's
        dispatcher calls this — the ``stats`` duck type it expects)."""
        self.batches_dispatched += 1
        self._batch_size_sum += size
        self.max_batch_size = max(self.max_batch_size, size)

    def snapshot(self) -> dict:
        return {
            "requests": self.requests_total,
            "queries": self.queries_total,
            "opens": self.opens,
            "evictions": self.evictions,
            "batch": {
                "dispatched": self.batches_dispatched,
                "mean_size": (self._batch_size_sum / self.batches_dispatched
                              if self.batches_dispatched else None),
                "max_size": self.max_batch_size or None,
            },
            "cache": self.cache.snapshot(),
        }


class IndexSlot:
    """One catalog entry's runtime state: open index + dispatcher (with
    its result cache) when resident, ``None`` when closed; stats always.
    Dispatcher and index share one lifetime — eviction drops both
    together, so a stale cache can never outlive (or precede) the index
    object its entries were computed against."""

    __slots__ = ("entry", "stats", "index", "dispatcher", "last_used",
                 "pinned")

    def __init__(self, entry: CatalogEntry, pinned: bool = False):
        self.entry = entry
        self.stats = IndexStats()
        self.index = None
        self.dispatcher = None
        self.last_used = 0
        self.pinned = pinned

    @property
    def name(self) -> str:
        return self.entry.name

    @property
    def open(self) -> bool:
        return self.index is not None

    @property
    def busy(self) -> bool:
        """Whether the slot's dispatcher has queries pending or ticks in
        flight — a busy slot must never be evicted out from under them."""
        return (self.dispatcher is not None
                and (self.dispatcher.n_pending > 0
                     or self.dispatcher.n_inflight > 0))


class CatalogHandle:
    """Open/evict/route façade over a :class:`Catalog`.

    ``catalog`` must have at least one entry.  ``config`` is the
    server's :class:`~repro.serve.config.ServeConfig`, already
    validated; the handle opens entries by its ``mmap`` and
    ``quantized`` (+ ``overfetch``/``margin``), evicts by its
    ``max_open`` — if every other open slot is busy, the cap is
    exceeded temporarily rather than evicting under in-flight work —
    and hands it to each slot's dispatcher, which sizes its result cache
    by it.  ``stats`` is an optional server-wide batch-stats sink every
    dispatcher also reports to — global batch shapes keep meaning "all
    ticks" while per-index shapes separate.
    """

    def __init__(self, catalog: Catalog, config, stats=None):
        if not len(catalog):
            raise ValueError("catalog has no entries; add one with "
                             "`catalog add` before serving")
        self.catalog = catalog
        self.config = config
        self.stats = stats
        self.slots: dict[str, IndexSlot] = {
            entry.name: IndexSlot(entry) for entry in catalog}
        self._clock = 0

    @classmethod
    def for_index(cls, index, config, stats=None) -> "CatalogHandle":
        """Wrap one already-open index as a single-entry catalog — the
        bare-path ``serve`` mode, preserving the one-index server's
        behaviour exactly.  The slot is *pinned*: it was handed to us
        open with no path to reopen from, so it is never evicted."""
        entry = CatalogEntry(name="default", path=None, kind=index.kind,
                             model_id=index.model_id, default=True)
        catalog = Catalog.__new__(Catalog)
        catalog.root = None
        catalog.entries = {entry.name: entry}
        handle = cls(catalog, config, stats)
        slot = handle.slots[entry.name]
        slot.pinned = True
        handle._attach(slot, index)
        return handle

    # ------------------------------------------------------------------
    # Per-slot dispatchers
    # ------------------------------------------------------------------
    def _make_dispatcher(self, slot: IndexSlot):
        """A fresh dispatcher for a just-opened slot.  Its cache
        *contents* start cold on every open; its counters are the
        slot's, so they accumulate across eviction/reopen cycles."""
        # Runtime import: repro.serve sits *above* repro.catalog in the
        # layering (the server imports this module), so importing it at
        # module scope here would be circular.  By the time a dispatcher
        # is actually needed both packages are fully initialised.
        from repro.serve.dispatcher import MicroBatchDispatcher

        sinks = [sink for sink in (slot.stats, self.stats) if sink is not None]
        return MicroBatchDispatcher(slot.index, self.config, stats=sinks,
                                    counters=slot.stats.cache)

    # ------------------------------------------------------------------
    # Lookup / open / evict
    # ------------------------------------------------------------------
    @property
    def default_name(self) -> str:
        return self.catalog.default_name

    def __len__(self) -> int:
        return len(self.slots)

    def __iter__(self):
        return iter(self.slots.values())

    def open_slots(self) -> list[IndexSlot]:
        return [slot for slot in self.slots.values() if slot.open]

    def get(self, name: str | None = None) -> IndexSlot:
        """The slot for ``name`` (``None`` → the default entry), opened.

        Raises ``KeyError`` for a name the catalog does not know (the
        server's 404), and lets open failures (missing/corrupt layout,
        checkpoint mismatch) propagate as the clear errors
        ``open_index`` produces."""
        if name is None:
            name = self.default_name
        slot = self.slots.get(name)
        if slot is None:
            raise KeyError(name)
        if not slot.open:
            self._open(slot)
        if slot.dispatcher is None:
            slot.dispatcher = self._make_dispatcher(slot)
        self._clock += 1
        slot.last_used = self._clock
        self._evict_over_cap(keep=slot)
        return slot

    def _open(self, slot: IndexSlot) -> None:
        from repro.index import open_index

        entry = slot.entry
        index = open_index(self.catalog.resolve_path(entry),
                           mmap=self.config.mmap)
        if index.kind != entry.kind:
            raise ValueError(
                f"catalog entry {entry.name!r} says kind {entry.kind!r} but "
                f"{self.catalog.resolve_path(entry)} holds a {index.kind!r} "
                f"index — the catalog is stale (re-run `catalog add`)")
        if (entry.model_id is not None and index.model_id is not None
                and entry.model_id != index.model_id):
            raise ValueError(
                f"catalog entry {entry.name!r} expects checkpoint "
                f"{entry.model_id!r} but the saved index was built from "
                f"{index.model_id!r} — the catalog is stale (re-run "
                f"`catalog add`)")
        self._attach(slot, index)
        slot.stats.opens += 1

    def _attach(self, slot: IndexSlot, index) -> None:
        """Make ``index`` the slot's open index, opted into the int8
        tier when the config says so — the one place that happens, for
        opened and pinned slots alike.  After the open, so a missing
        sidecar surfaces as the clear ``enable_quantized`` error (with
        the retrofit hint) rather than a failed open of an otherwise-
        good layout."""
        config = self.config
        if config.quantized:
            index.enable_quantized(overfetch=config.overfetch,
                                   margin=config.margin)
        slot.index = index

    def _evict_over_cap(self, keep: IndexSlot) -> None:
        max_open = self.config.max_open
        if max_open is None:
            return
        while True:
            resident = [slot for slot in self.slots.values()
                        if slot.open and not slot.pinned]
            if len(resident) <= max_open:
                return
            candidates = [slot for slot in resident
                          if slot is not keep and not slot.busy]
            if not candidates:
                # Every other resident slot has in-flight work; run over
                # cap until their ticks finish rather than evict an
                # index a GEMM is still reading.
                return
            self._evict(min(candidates, key=lambda slot: slot.last_used))

    def _evict(self, slot: IndexSlot) -> None:
        # Index and dispatcher (with its cache) go together: a cache
        # keyed against this open's id space must not survive into the
        # next open (counters live on slot.stats and do survive).
        slot.index = None
        slot.dispatcher = None
        slot.stats.evictions += 1

    def evict(self, name: str) -> bool:
        """Explicitly close one entry (tests, admin).  Returns whether
        it was evicted — pinned, busy, and already-closed slots are
        left alone."""
        slot = self.slots[name]
        if not slot.open or slot.pinned or slot.busy:
            return False
        self._evict(slot)
        return True
