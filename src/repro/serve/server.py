"""The retrieval server: asyncio HTTP front-end over a catalog of
named indexes.

:class:`RetrievalServer` holds a
:class:`~repro.catalog.CatalogHandle` — one entry per named index,
opened lazily via :func:`~repro.index.open_index` (typically
``mmap=True``, so even a huge sharded layout boots without reading its
vector data) and LRU-evicted under a configurable cap — and serves:

- ``POST /query``   — single or batch JSON queries, routed by the
  optional ``"index"`` name field (absent → the default entry, exactly
  the one-index wire contract; unknown → 404), answered from that
  entry's own micro-batching dispatcher so concurrent requests share
  GEMMs but distinct indexes never share batch ticks; served rankings
  are pinned identical to the offline ``query_many`` path.
- ``GET /indexes``  — the catalog: every entry with its open/closed
  state and per-entry traffic counters.
- ``GET /healthz``  — liveness plus the default index's identity
  (kind/dim/entries/model checkpoint/saved format version).
- ``GET /stats``    — QPS, latency percentiles, batch-size shape,
  dispatcher backlog, and a per-index section (queries, batch shapes,
  opens, evictions).

A server constructed from a bare index (the pre-catalog API, still the
``serve PATH``-to-a-``.npz`` path) wraps it as a pinned single-entry
catalog, so every old caller — and every old client — sees byte-
identical behaviour.

The sockets — listener, keep-alive connection loop, protocol-error
and last-resort answers, graceful drain — belong to
:class:`~repro.serve.transport.HttpTransport`, which this server
subclasses; what lives here is what makes it the *retrieval* server:
the route table, :class:`~repro.serve.stats.ServerStats` accounting,
flushing every open entry's dispatcher while a drain is under way, and
the pre-fork stats file.  The query path never writes to any index, so
one instance handles any number of concurrent connections without
locks.

:class:`ServerThread` runs a server on a background thread with its own
event loop — the harness the e2e/soak tests and the serving benchmark
use to run server and clients in one process.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import threading
import time
from pathlib import Path

from ..catalog import Catalog, CatalogHandle
from .config import ServeConfig
from .protocol import (
    DEFAULT_MAX_BODY,
    ProtocolError,
    Request,
    format_hits,
    index_route,
    no_cache_flag,
    parse_json_object,
    parse_query_payload,
)
from .stats import ServerStats
from .transport import HttpTransport

#: Seconds a pre-fork worker's published stats file may lag its live
#: counters.
STATS_FLUSH_INTERVAL = 0.25


class RetrievalServer(HttpTransport):
    """Serve a catalog of indexes over the shared HTTP transport.

    ``target`` is a :class:`~repro.catalog.Catalog` (entries open
    lazily) or an already-open index (wrapped as a pinned single-entry
    catalog — the pre-catalog constructor contract, unchanged).
    ``config`` is the :class:`~repro.serve.config.ServeConfig` the
    catalog handle and every entry's dispatcher and cache run by."""

    def __init__(self, target, host: str = "127.0.0.1", port: int = 0, *,
                 config: ServeConfig = ServeConfig(),
                 max_body: int = DEFAULT_MAX_BODY,
                 log_path: str | Path | None = None,
                 sock=None, worker_id: int | None = None,
                 stats_dir: str | Path | None = None):
        self.config = config
        self.stats = ServerStats()
        # Per-entry dispatchers and result caches are created lazily by
        # the handle, on each entry's first use.
        if isinstance(target, Catalog):
            self.handle = CatalogHandle(target, config, self.stats)
        else:
            self.handle = CatalogHandle.for_index(target, config, self.stats)
        super().__init__(host, port, max_body=max_body, log_path=log_path,
                         sock=sock)
        # Pre-fork wiring (see repro.serve.prefork): this worker's fleet
        # id and the shared stats directory it publishes its counters
        # into; ``sock`` is its already-bound SO_REUSEPORT socket, or
        # the supervisor's inherited one.
        self._worker_id = worker_id
        self._stats_dir = None if stats_dir is None else Path(stats_dir)
        self._stats_task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # Back-compat surface (the pre-catalog one-index API)
    # ------------------------------------------------------------------
    @property
    def index(self):
        """The default entry's open index."""
        return self.handle.get().index

    # ------------------------------------------------------------------
    # Transport hooks
    # ------------------------------------------------------------------
    @property
    def requests_total(self) -> int:
        return self.stats.requests_total

    @property
    def queries_total(self) -> int:
        return self.stats.queries_total

    def _boot(self) -> str:
        # The default entry opens at boot: a server that cannot serve
        # its default index should fail to start, not 500 later, and
        # /healthz answers from it without lazy-open surprises.
        index = self.handle.get().index
        return (f"serving kind={index.kind} dim={index.dim} "
                f"entries={len(index)}")

    async def start(self) -> None:
        await super().start()
        if len(self.handle) > 1:
            names = ", ".join(slot.name for slot in self.handle)
            self._log(f"catalog: {len(self.handle)} indexes ({names}), "
                      f"default {self.handle.default_name!r}, "
                      f"max_open={self.config.max_open}")
        if self._stats_dir is not None:
            self._publish_stats()
            self._stats_task = asyncio.get_running_loop().create_task(
                self._stats_flush_loop())

    def _account(self, status: int, latency: float, n_queries: int) -> None:
        self.stats.record_response(status, latency, n_queries=n_queries)

    async def _flush(self) -> None:
        # Every *open* entry: a late handler may even lazily open
        # another catalog entry while the drain is under way.
        for slot in self.handle.open_slots():
            await slot.dispatcher.drain()

    async def _release(self) -> None:
        if self._stats_task is not None:
            self._stats_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._stats_task
            self._stats_task = None
        if self._stats_dir is not None:
            # Final counters outlive the worker: the fleet /stats keeps
            # an accurate total across graceful worker exits.
            self._publish_stats()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _respond(self, request: Request) -> tuple[int, dict, int]:
        if request.target == "/query":
            if request.method != "POST":
                return 405, {"error": "/query takes POST"}, 0
            return await self._respond_query(request)
        if request.target == "/healthz":
            if request.method != "GET":
                return 405, {"error": "/healthz takes GET"}, 0
            default = self.handle.get()
            payload = {
                "status": "ok",
                "kind": default.index.kind,
                "dim": default.index.dim,
                "entries": len(default.index),
                "shards": getattr(default.index, "n_shards", 1),
                # Checkpoint + saved-format identity: what a catalog
                # A/B deployment reads to verify which model is live.
                "model_id": default.index.model_id,
                "format_version": default.index.format_version,
                "indexes": len(self.handle),
                # Quantization state of the default index: whether an
                # int8 sidecar is attached and whether scoring actually
                # uses it (getattr — a remote cluster facade has no
                # quantize surface of its own).
                "quantized": bool(getattr(default.index, "quantized",
                                          False)),
                "quantized_scoring": bool(getattr(default.index,
                                                  "use_quantized", False)),
            }
            if self._worker_id is not None:
                # Which fleet member answered — lets a client (and the
                # prefork tests) observe accept distribution.
                payload["worker_id"] = self._worker_id
                payload["pid"] = os.getpid()
            # A distributed index (duck-typed: it knows its shards'
            # health) gets a cluster section, and a partial outage
            # flips the status to "degraded" — visible here before it
            # surfaces as failed queries.
            health = getattr(default.index, "shard_health", None)
            if callable(health):
                loop = asyncio.get_running_loop()
                cluster = await loop.run_in_executor(None, health)
                payload["cluster"] = cluster
                if cluster["reachable"] < cluster["total"]:
                    payload["status"] = "degraded"
            return 200, payload, 0
        if request.target == "/indexes":
            if request.method != "GET":
                return 405, {"error": "/indexes takes GET"}, 0
            return 200, {"indexes": [self._describe_slot(slot)
                                     for slot in self.handle]}, 0
        if request.target == "/stats":
            if request.method != "GET":
                return 405, {"error": "/stats takes GET"}, 0
            if self._stats_dir is not None:
                return 200, self._fleet_stats(), 0
            return 200, self._stats_payload(), 0
        return 404, {"error": f"no route {request.target!r}"}, 0

    def _stats_payload(self) -> dict:
        """This process's ``/stats`` body: counters, latency shape,
        dispatcher backlog, per-index sections.  Also what a pre-fork
        worker publishes into its stats file."""
        snapshot = self.stats.snapshot()
        open_slots = self.handle.open_slots()
        snapshot["dispatcher"] = {
            "pending": sum(slot.dispatcher.n_pending
                           for slot in open_slots),
            "in_flight_batches": sum(slot.dispatcher.n_inflight
                                     for slot in open_slots),
            "max_batch": self.config.max_batch,
            "max_wait_ms": self.config.max_wait_ms,
            "max_backlog": self.config.max_backlog,
            # Queries shed by backpressure (each became a 429).
            "rejected": sum(slot.dispatcher.rejected_total
                            for slot in open_slots),
        }
        snapshot["indexes"] = {
            slot.name: self._slot_stats(slot) for slot in self.handle}
        return snapshot

    def _publish_stats(self) -> None:
        """Atomically write this worker's stats file (see
        ``repro.serve.prefork``)."""
        from .prefork import write_worker_stats
        record = {
            "worker_id": self._worker_id,
            "pid": os.getpid(),
            "updated_at": time.time(),
            "stats": self._stats_payload(),
            "latencies": self.stats.latencies(),
        }
        try:
            write_worker_stats(self._stats_dir, self._worker_id, record)
        except OSError:
            # The stats dir tearing down mid-drain is not worth dying
            # over; /stats degrades to the sections that exist.
            pass

    async def _stats_flush_loop(self) -> None:
        """Keep this worker's stats file at most one interval stale so
        whichever sibling answers ``/stats`` sees near-live counters;
        idle workers skip the rewrite."""
        last_marker = None
        while True:
            await asyncio.sleep(STATS_FLUSH_INTERVAL)
            marker = (self.stats.requests_total, self.stats.queries_total)
            if marker != last_marker:
                self._publish_stats()
                last_marker = marker

    def _fleet_stats(self) -> dict:
        """The pre-fork fleet view of ``/stats``: this worker publishes
        a fresh record of itself, reads every sibling's file, and rolls
        them up.  Peer sections are at most one flush interval stale —
        each carries its ``updated_at`` saying exactly how stale."""
        from .prefork import aggregate_worker_stats, read_worker_stats
        self._publish_stats()
        records = read_worker_stats(self._stats_dir)
        workers = {}
        for worker_id, record in sorted(records.items()):
            section = dict(record.get("stats", {}))
            section["pid"] = record.get("pid")
            section["updated_at"] = record.get("updated_at")
            workers[str(worker_id)] = section
        return {
            "worker_id": self._worker_id,
            "workers": workers,
            "aggregate": aggregate_worker_stats(records),
        }

    def _slot_stats(self, slot) -> dict:
        """One entry's ``/stats`` section: lifetime counters plus, while
        the index is open, its live generation and the cache's entry
        counts (the lifecycle tests read the generation here to observe
        invalidation).  With caching disabled the section is omitted
        entirely, so whenever it appears its counters partition the
        query total."""
        described = dict(slot.stats.snapshot(), open=slot.open)
        if slot.open:
            described["generation"] = slot.index.generation
            described["quantized"] = bool(getattr(slot.index, "quantized",
                                                  False))
            described["quantized_scoring"] = bool(
                getattr(slot.index, "use_quantized", False))
        if not self.config.cache_size:
            described.pop("cache")
        elif slot.dispatcher is not None:
            cache = slot.dispatcher.cache
            # semantic_entries: a retired tier, kept for /stats readers.
            described["cache"].update(
                exact_entries=len(cache), semantic_entries=0,
                evictions=cache.evictions, expirations=cache.expirations)
        return described

    def _describe_slot(self, slot) -> dict:
        entry = slot.entry
        described = {
            "name": entry.name,
            "kind": entry.kind,
            "path": entry.path,
            "model_id": entry.model_id,
            "default": entry.name == self.handle.default_name,
            "open": slot.open,
            # Only an *open* index knows its live entry count; listing
            # must never force-open a closed one.
            "entries": len(slot.index) if slot.open else None,
            "generation": slot.index.generation if slot.open else None,
            "queries": slot.stats.queries_total,
        }
        return described

    async def _respond_query(self,
                             request: Request) -> tuple[int, dict, int]:
        try:
            payload = parse_json_object(request.body)
            name = index_route(payload)
            no_cache = no_cache_flag(payload)
        except ProtocolError as error:
            return error.status, {"error": error.message}, 0
        try:
            slot = self.handle.get(name)
        except KeyError:
            known = ", ".join(repr(slot.name) for slot in self.handle)
            return 404, {"error": f"no index named {name!r} "
                                  f"(catalog has: {known})"}, 0
        except (FileNotFoundError, ValueError) as error:
            # The catalog names the entry but its layout won't open
            # (deleted, corrupt, checkpoint mismatch): a server-side
            # condition, not a client error.
            self._log(f"failed to open index {name!r}: {error}")
            return 500, {"error": f"failed to open index {name!r}: "
                                  f"{error}"}, 0
        try:
            matrix, k, excludes, single = parse_query_payload(
                payload, slot.index.dim)
        except ProtocolError as error:
            return error.status, {"error": error.message}, 0
        # A shed or unavailable query raises its own status (BacklogFull
        # 429, the cluster tier's 503s); the transport answers with it.
        results = await slot.dispatcher.submit_many(matrix, k, excludes,
                                                    no_cache=no_cache)
        slot.stats.record_queries(len(results))
        if single:
            return 200, {"hits": format_hits(results[0])}, 1
        return 200, {"results": [{"hits": format_hits(hits)}
                                 for hits in results]}, len(results)


class ServerThread:
    """A server on a background thread's event loop.

    Context-manager harness for in-process clients (tests, the serving
    benchmark)::

        config = ServeConfig(max_wait_ms=1.0)
        with ServerThread(index_or_catalog, config=config) as handle:
            requests.post(f"http://127.0.0.1:{handle.port}/query", ...)

    ``__exit__`` performs the same graceful drain the CLI's signal
    handler does, so in-flight requests finish before the thread joins.
    Arguments go to ``server_class`` — a subclass rebinds it to boot
    another :class:`~repro.serve.transport.HttpTransport` the same way.
    """

    server_class = RetrievalServer

    def __init__(self, target, **server_kwargs):
        self.server = self.server_class(target, **server_kwargs)
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._running = False

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> "ServerThread":
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run,
                                        name="repro-serve", daemon=True)
        self._thread.start()
        try:
            asyncio.run_coroutine_threadsafe(
                self.server.start(), self._loop).result(timeout=30)
        except BaseException:
            # A failed start leaves no thread (and no open loop) behind.
            self._halt(timeout=30)
            raise
        self._running = True
        return self

    def _run(self) -> None:
        loop = self._loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.run_until_complete(loop.shutdown_default_executor())
            loop.close()

    def stop(self, timeout: float = 30.0) -> None:
        if not self._running:
            return
        self._running = False
        asyncio.run_coroutine_threadsafe(
            self.server.shutdown(), self._loop).result(timeout=timeout)
        self._halt(timeout)

    def _halt(self, timeout: float) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
