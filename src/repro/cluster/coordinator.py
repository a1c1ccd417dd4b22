"""Scatter-gather coordinator: an index whose shards are remote.

:class:`RemoteShardedIndex` is an
:class:`~repro.index.index.IndexSurface`, like the two local layouts:
its :class:`~repro.index.spec.IndexSpec` (from the shard servers'
``/healthz``) answers ``kind``/``dim``/``model_id``, and
``query_vector``/``query_many`` are the surface's own, so everything
built on that surface composes unchanged: the
:class:`~repro.serve.dispatcher.MicroBatchDispatcher` micro-batches
ticks into it, the result cache keys on its ``generation`` (propagated
from the shard servers, so a shard whose data changed invalidates the
coordinator's cache), and the catalog wraps it as a pinned entry.

The coordinator supplies only the two answers the surface asks every
layout for, with HTTP in place of method calls:

1. partials — ``POST /partial_query`` to every shard server
   **concurrently** (one asyncio task each, on the coordinator's
   private I/O loop), each server's per-local-shard replies flattened
   in topology order into one global shard list — the same flat order
   a local ``ShardedIndex`` over those shards would merge;
2. brute-force rankings — ``POST /brute_query`` to every server, for
   the queries :func:`~repro.index.index.gather_top_k` found short.

Each server answers both with the one per-shard query path,
:meth:`~repro.index.index.VectorIndex.query_partial_many` /
``query_brute_many``.  The fallback decision (on the **global**
candidate total) and the merge are the local layouts' code, not a copy
of it: distributed rankings are bit-identical by construction.

Transport: per-shard keep-alive connection pools, per-attempt
timeouts, and capped exponential backoff retries.  Retrying is safe
because both endpoints are idempotent reads — re-sending a query can
never corrupt anything, only recompute it.  A shard that stays dead
raises one :class:`~repro.cluster.errors.ShardUnavailable` for the
whole query: the merge step **never** runs on a partial fan-out, so a
caller either gets exactly the right ranking or one clear error.
Recovery needs no coordinator restart — pools re-dial on demand, so
the first fan-out after the shard returns succeeds.

``query_many`` is synchronous (the dispatcher calls it from an
executor thread); internally each scatter hops onto the I/O loop via
``run_coroutine_threadsafe``, so concurrent ticks share pools without
locks — all pool state lives on the loop thread.
"""

from __future__ import annotations

import asyncio
import json
import threading

import numpy as np

from ..index import IndexSpec, SearchHit
from ..index.index import IndexSurface
from ..serve.protocol import STREAM_LIMIT
from .errors import ClusterError, ShardProtocolError, ShardUnavailable, TopologyError
from .topology import ShardAddress, Topology

#: Per-attempt I/O timeout (seconds) for shard requests.
DEFAULT_TIMEOUT = 30.0
#: Retries after the first attempt (so ``retries=2`` → 3 attempts).
DEFAULT_RETRIES = 2
#: Exponential backoff: ``backoff * 2**attempt`` seconds, capped.
DEFAULT_BACKOFF = 0.05
BACKOFF_CAP = 1.0
#: Idle keep-alive connections kept per shard server.
POOL_SIZE = 4


class _IOLoop:
    """A private event loop on a daemon thread.  Everything network
    lives here; synchronous callers hop on with :meth:`run`."""

    def __init__(self):
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run,
                                        name="repro-cluster-io", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    def run(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def stop(self) -> None:
        if self._loop.is_closed():
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()


async def _read_client_response(reader: asyncio.StreamReader
                                ) -> tuple[int, bytes, bool]:
    """Parse one HTTP/1.1 response off ``reader``: ``(status, body,
    keep_alive)``.  The client half of what ``repro.serve.protocol``
    does for requests — shard servers always answer with
    ``Content-Length`` framing (they are ours), so no chunked support
    is needed.  A status line that is not HTTP/1.x, or a status code
    or length that is not a number (or a negative length), raises
    ``ValueError``: the peer answered, but not in HTTP.  Only EOF is a
    ``ConnectionError`` (worth a retry)."""
    line = await reader.readline()
    if not line:
        raise ConnectionError("EOF before status line")
    parts = line.decode("latin-1").split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise ValueError(f"malformed status line {line!r}")
    status = int(parts[1])
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise ConnectionError("EOF in response headers")
        name, sep, value = line.decode("latin-1").partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    if length < 0:
        raise ValueError(f"negative Content-Length {length}")
    body = await reader.readexactly(length) if length else b""
    keep = headers.get("connection", "keep-alive").lower() != "close"
    return status, body, keep


class RemoteShard:
    """One shard server: address + keep-alive connection pool + retry
    policy.  All state lives on the coordinator's I/O loop thread."""

    def __init__(self, address: ShardAddress, *, timeout: float,
                 retries: int, backoff: float, pool_size: int = POOL_SIZE):
        self.address = address
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.pool_size = pool_size
        self._pool: list[tuple[asyncio.StreamReader,
                               asyncio.StreamWriter]] = []

    # -- connection management (I/O loop only) -------------------------

    async def _acquire(self) -> tuple[tuple[asyncio.StreamReader,
                                            asyncio.StreamWriter], bool]:
        """``(connection, pooled)`` — a pooled keep-alive connection if
        one is idle, else a fresh dial.  ``pooled`` tells the retry
        logic a failure may just mean the server closed an idle socket
        (restart, timeout), not that it is down."""
        if self._pool:
            return self._pool.pop(), True
        reader, writer = await asyncio.open_connection(
            self.address.host, self.address.port, limit=STREAM_LIMIT)
        return (reader, writer), False

    def _release(self, conn) -> None:
        if len(self._pool) < self.pool_size:
            self._pool.append(conn)
        else:
            self._close(conn)

    @staticmethod
    def _close(conn) -> None:
        _reader, writer = conn
        writer.close()

    def flush_pool(self) -> None:
        """Drop every idle connection (after a pooled-connection
        failure they are all suspect — the server likely restarted)."""
        while self._pool:
            self._close(self._pool.pop())

    # -- requests -------------------------------------------------------

    async def request(self, method: str, path: str, body: bytes = b"",
                      timeout: float | None = None,
                      retries: int | None = None) -> dict:
        """One idempotent request with the JSON ``body`` already
        encoded, retried with capped exponential backoff; returns the
        decoded JSON body of a 200.

        Connection failures and per-attempt timeouts retry (the shard
        may be restarting — recovery must not need a coordinator
        restart); a 503 retries too (the server was draining).  Any
        other non-200, a reply that is not HTTP, and a 200 whose body
        is not a JSON object are :class:`ShardProtocolError` — terminal,
        retrying cannot fix a wrong-version server.  Retries exhausted
        is :class:`ShardUnavailable`, naming the shard."""
        timeout = self.timeout if timeout is None else timeout
        retries = self.retries if retries is None else retries
        head = (f"{method} {path} HTTP/1.1\r\n"
                f"Host: {self.address}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"\r\n").encode("latin-1")
        cause: BaseException = ConnectionError("no attempt made")
        attempts = retries + 1
        for attempt in range(attempts):
            if attempt:
                await asyncio.sleep(min(self.backoff * 2 ** (attempt - 1),
                                        BACKOFF_CAP))
            try:
                conn, pooled = await asyncio.wait_for(self._acquire(),
                                                      timeout)
            except (OSError, asyncio.TimeoutError) as error:
                cause = error
                continue
            try:
                status, data, keep = await asyncio.wait_for(
                    self._exchange(conn, head, body), timeout)
            except (OSError, asyncio.IncompleteReadError, ConnectionError,
                    asyncio.TimeoutError) as error:
                self._close(conn)
                if pooled:
                    # A stale keep-alive socket, not evidence the shard
                    # is down; its pool-mates are equally stale.
                    self.flush_pool()
                cause = error
                continue
            except ValueError as error:
                self._close(conn)
                raise ShardProtocolError(
                    str(self.address),
                    f"malformed HTTP response: {error}") from None
            if status == 200:
                if keep:
                    self._release(conn)
                else:
                    self._close(conn)
                try:
                    reply = json.loads(data)
                except (ValueError, RecursionError) as error:
                    raise ShardProtocolError(
                        str(self.address),
                        f"200 with undecodable body: {error}") from None
                if not isinstance(reply, dict):
                    raise ShardProtocolError(
                        str(self.address),
                        f"200 body is a JSON {type(reply).__name__}, "
                        f"not an object")
                return reply
            self._close(conn)
            if status == 503:
                # Draining/restarting: exactly what backoff is for.
                cause = ConnectionError("shard answered 503 (draining)")
                continue
            raise ShardProtocolError(
                str(self.address),
                f"{method} {path} answered {status}: "
                f"{data[:200].decode('utf-8', 'replace')}")
        raise ShardUnavailable(str(self.address), attempts, cause)

    @staticmethod
    async def _exchange(conn, head: bytes,
                        body: bytes) -> tuple[int, bytes, bool]:
        reader, writer = conn
        writer.write(head + body)
        await writer.drain()
        return await _read_client_response(reader)


class RemoteShardedIndex(IndexSurface):
    """A cluster of shard servers behind the one index query surface
    (see module docstring).  Build with :meth:`connect`."""

    def __init__(self, topology: Topology, *,
                 timeout: float = DEFAULT_TIMEOUT,
                 retries: int = DEFAULT_RETRIES,
                 backoff: float = DEFAULT_BACKOFF,
                 pool_size: int = POOL_SIZE):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {backoff}")
        self.topology = topology
        self._io = _IOLoop()
        self.remotes = [RemoteShard(address, timeout=timeout,
                                    retries=retries, backoff=backoff,
                                    pool_size=pool_size)
                        for address in topology]
        # Filled by connect(): spec identity + per-server bookkeeping.
        self.spec = IndexSpec(kind="vector", dim=0)
        self.format_version: int = 0
        self._shard_counts: list[int] = [1] * len(self.remotes)
        self._entries: list[int] = [0] * len(self.remotes)
        self._generations: list[int] = [0] * len(self.remotes)
        self._gen_offset = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Boot / identity
    # ------------------------------------------------------------------
    @classmethod
    def connect(cls, topology: Topology, **kwargs) -> "RemoteShardedIndex":
        """Dial every shard server, verify they describe one coherent
        cluster (same kind/dim/LSH geometry, compatible checkpoints),
        and return the ready coordinator.  Fails fast — a cluster that
        cannot answer /healthz everywhere should refuse to boot, not
        500 on the first query."""
        index = cls(topology, **kwargs)
        try:
            index.refresh_identity()
        except BaseException:
            index.close()
            raise
        return index

    def refresh_identity(self) -> None:
        """Fan /healthz out to every server and (re)validate the
        cluster's shared spec.  Raises on any unreachable server or
        spec mismatch."""
        replies = self._io.run(self._gather(
            [remote.request("GET", "/healthz") for remote in self.remotes]))
        specs = []
        for position, reply in enumerate(replies):
            if isinstance(reply, BaseException):
                raise reply
            spec = reply.get("spec")
            if not isinstance(spec, dict):
                raise ShardProtocolError(
                    str(self.remotes[position].address),
                    "healthz reply has no 'spec' — not a shard server?")
            specs.append(spec)
            self._shard_counts[position] = int(reply.get("shards", 1))
            self._entries[position] = int(reply.get("entries", 0))
            self._observe_generation(position,
                                     int(reply.get("generation", 0)))
        first = specs[0]
        for position, spec in enumerate(specs):
            if spec != first:
                raise TopologyError(
                    f"shard server {self.remotes[position].address} "
                    f"describes spec {spec}, but "
                    f"{self.remotes[0].address} describes {first} — the "
                    f"cluster does not share one index spec")
        model_ids = {reply.get("model_id") for reply in replies
                     if reply.get("model_id") is not None}
        if len(model_ids) > 1:
            raise TopologyError(
                f"shard servers were built from different model "
                f"checkpoints: {sorted(model_ids)}")
        self.spec = IndexSpec.from_params(
            {**first, "model_id": model_ids.pop() if model_ids else None})
        self.format_version = max(int(reply.get("format_version", 0))
                                  for reply in replies)

    @staticmethod
    async def _gather(coros):
        return await asyncio.gather(*coros, return_exceptions=True)

    @property
    def n_shards(self) -> int:
        """Total flat shard count across the cluster — what the local
        equivalent ``ShardedIndex`` would call ``n_shards``."""
        return sum(self._shard_counts)

    @property
    def n_servers(self) -> int:
        return len(self.remotes)

    def __len__(self) -> int:
        return sum(self._entries)

    @property
    def generation(self) -> int:
        """Cluster-wide monotonic mutation counter: the sum of every
        server's last-observed index generation plus an offset that
        absorbs restarts (a server coming back with a *lower* counter
        bumps the offset so the total never repeats — the cache may be
        flushed spuriously, never served stale)."""
        return self._gen_offset + sum(self._generations)

    def _observe_generation(self, position: int, generation: int) -> None:
        previous = self._generations[position]
        if generation < previous:
            self._gen_offset += previous - generation
        self._generations[position] = generation

    # ------------------------------------------------------------------
    # Health (the coordinator /healthz aggregation)
    # ------------------------------------------------------------------
    def shard_health(self, timeout: float = 5.0) -> dict:
        """Per-shard reachability, never raising: one entry per server
        with ``ok`` plus identity fields when reachable, the error when
        not.  The retrieval server duck-types on this method to grow
        its ``/healthz`` with a cluster section — partial outages are
        visible *before* they turn into failed queries."""
        replies = self._io.run(self._gather(
            [remote.request("GET", "/healthz", timeout=timeout, retries=0)
             for remote in self.remotes]))
        shards = []
        for position, reply in enumerate(replies):
            address = str(self.remotes[position].address)
            if isinstance(reply, BaseException):
                shards.append({"address": address, "ok": False,
                               "error": str(reply)})
                continue
            self._shard_counts[position] = int(reply.get("shards", 1))
            self._entries[position] = int(reply.get("entries", 0))
            self._observe_generation(position,
                                     int(reply.get("generation", 0)))
            shards.append({"address": address, "ok": True,
                           "entries": reply.get("entries"),
                           "shards": reply.get("shards"),
                           "generation": reply.get("generation"),
                           "format_version": reply.get("format_version")})
        reachable = sum(1 for shard in shards if shard["ok"])
        return {"servers": shards, "reachable": reachable,
                "total": len(shards),
                "n_shards": self.n_shards,
                "generation": self.generation}

    # ------------------------------------------------------------------
    # Query: the partial and brute-force answers of the surface
    # ------------------------------------------------------------------
    def _payload(self, matrix: np.ndarray, k: int,
                 excludes: list[str | None] | None) -> dict:
        payload = {"vectors": matrix.tolist(), "k": k}
        if excludes is not None:
            payload["excludes"] = list(excludes)
        return payload

    def _partials(self, matrix, k, excludes, jobs
                  ) -> list[list[tuple[int, list[SearchHit]]]]:
        """Scatter ``/partial_query``; returns ``partials[s][q] =
        (count, hits)`` flattened to one entry per *global* shard in
        topology order — what a local layout's shard ``s`` would report
        for query ``q``.  ``jobs`` needs no pool here: the scatter is
        already fully concurrent."""
        replies = self._scatter("/partial_query",
                                self._payload(matrix, k, excludes))
        partials: list[list[tuple[int, list[SearchHit]]]] = []
        for position, reply in enumerate(replies):
            for shard in self._shard_entries(position, reply, len(matrix)):
                shard_partials = []
                for q, entry in enumerate(shard["queries"]):
                    count = entry.get("count")
                    if not isinstance(count, int):
                        raise ShardProtocolError(
                            str(self.remotes[position].address),
                            f"partial reply query {q} lacks a candidate "
                            f"count")
                    shard_partials.append(
                        (count, self._parse_hits(position, entry)))
                partials.append(shard_partials)
        return partials

    def _brute(self, matrix, k, excludes, jobs) -> list[list[list[SearchHit]]]:
        replies = self._scatter("/brute_query",
                                self._payload(matrix, k, excludes))
        rankings: list[list[list[SearchHit]]] = []
        for position, reply in enumerate(replies):
            for shard in self._shard_entries(position, reply, len(matrix)):
                rankings.append([self._parse_hits(position, entry)
                                 for entry in shard["queries"]])
        return rankings

    def _scatter(self, path: str, payload: dict) -> list[dict]:
        """POST ``payload`` to every server concurrently, encoded once.
        Any failure fails the whole fan-out with that shard's error —
        the merge never sees a partial result set."""
        if self._closed:
            raise ClusterError("coordinator is closed")
        body = json.dumps(payload).encode()
        replies = self._io.run(self._gather(
            [remote.request("POST", path, body)
             for remote in self.remotes]))
        for position, reply in enumerate(replies):
            if isinstance(reply, BaseException):
                raise reply
            self._observe_generation(position,
                                     int(reply.get("generation", 0)))
        return replies

    def _shard_entries(self, position: int, reply: dict,
                       n_queries: int) -> list[dict]:
        """Validate one server's reply shape against what /healthz
        promised: the right number of local shards, each answering
        every query."""
        address = str(self.remotes[position].address)
        shards = reply.get("shards")
        if not isinstance(shards, list):
            raise ShardProtocolError(address, "reply has no 'shards' list")
        if len(shards) != self._shard_counts[position]:
            raise ShardProtocolError(
                address,
                f"reply carries {len(shards)} local shards, healthz "
                f"promised {self._shard_counts[position]} — the server "
                f"was swapped under the coordinator (re-check topology)")
        for shard in shards:
            queries = shard.get("queries") if isinstance(shard, dict) else None
            if not isinstance(queries, list) or len(queries) != n_queries:
                raise ShardProtocolError(
                    address,
                    f"shard entry does not answer all {n_queries} queries")
        return shards

    def _parse_hits(self, position: int, entry: dict) -> list[SearchHit]:
        hits = entry.get("hits")
        if not isinstance(hits, list):
            raise ShardProtocolError(str(self.remotes[position].address),
                                     "query entry has no 'hits' list")
        try:
            return [SearchHit(key=hit["key"], score=float(hit["score"]),
                              meta=hit.get("meta") or {})
                    for hit in hits]
        except (TypeError, KeyError) as error:
            raise ShardProtocolError(
                str(self.remotes[position].address),
                f"malformed hit in reply: {error!r}") from None

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close every pooled connection and stop the I/O loop.
        Idempotent; the coordinator is unusable afterwards."""
        if self._closed:
            return
        self._closed = True

        async def _drain_pools():
            for remote in self.remotes:
                remote.flush_pool()

        try:
            self._io.run(_drain_pools())
        except RuntimeError:  # loop already gone
            pass
        self._io.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RemoteShardedIndex(servers={len(self.remotes)}, "
                f"shards={self.n_shards}, kind={self.kind!r}, "
                f"dim={self.dim})")
