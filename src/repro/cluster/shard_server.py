"""Shard server: one box's slice of the corpus behind a thin wire.

A :class:`ShardServer` holds one locally opened index — a single
``.npz`` (one shard) or a sharded directory (several co-located
shards) — and exposes exactly the per-shard half of the scatter-gather
contract :class:`~repro.index.sharded.ShardedIndex` already runs
in-process:

- ``POST /partial_query`` — :meth:`VectorIndex.query_partial_many` per
  local shard: for each query, the shard's LSH **candidate count** and
  its top-k among those candidates, *no* brute-force fallback.  The
  candidate counts are the point: whether brute force is needed is only
  decidable on the candidate total across **every** shard in the
  cluster, so that decision belongs to the coordinator — exactly as
  ``ShardedIndex`` decides it on the global total today.
- ``POST /brute_query`` — :meth:`VectorIndex.query_brute_many` per
  local shard: the fallback rankings the coordinator requests for
  queries whose global candidate total came up short.
- ``GET /healthz`` — shard identity: spec (kind/dim/LSH geometry),
  entries, local shard count, ``format_version``, ``model_id``, and the
  index ``generation`` (which every query response also carries, so the
  coordinator's result cache invalidates when a shard's data changes).

Responses list one entry **per local shard, in shard order**: the
coordinator flattens those lists across servers in topology order into
the same flat shard sequence a local ``ShardedIndex`` would merge, so
distributed rankings are bit-identical to local ones by construction
(JSON round-trips floats exactly — ``json.dumps`` emits ``repr``-style
shortest forms).

Sockets, keep-alive, error answers and the graceful drain are
:class:`~repro.serve.transport.HttpTransport`'s — the transport the
retrieval server also runs on, so a cluster member drains and fails
exactly as the front-end does.  A query ranks on the event-loop thread:
the index is local and its kernel mostly Python, so a worker thread
would overlap nothing, and a ``/healthz`` waits for the query in
flight.  The query path is read-only, so any number of coordinators may
hit one shard server concurrently.
"""

from __future__ import annotations

from pathlib import Path

from ..serve.protocol import (
    DEFAULT_MAX_BODY,
    ProtocolError,
    Request,
    format_hits,
    parse_query_payload,
)
from ..serve.server import ServerThread
from ..serve.transport import HttpTransport


def local_shards(index) -> list:
    """The flat list of single shards behind ``index`` — the units the
    wire protocol reports per-shard partials for."""
    return list(index._shards())


def index_spec_payload(index) -> dict:
    """The LSH-geometry/spec identity ``GET /healthz`` reports (the
    coordinator checks every server agrees before merging anything)."""
    spec = index.spec
    return {
        "kind": spec.kind,
        "dim": spec.dim,
        "n_planes": spec.n_planes,
        "n_bands": spec.n_bands,
        "seed": spec.seed,
    }


class ShardServer(HttpTransport):
    """Serve one local index's partial/brute query surface."""

    def __init__(self, index, host: str = "127.0.0.1", port: int = 0, *,
                 max_body: int = DEFAULT_MAX_BODY,
                 log_path: str | Path | None = None):
        super().__init__(host, port, max_body=max_body, log_path=log_path)
        self.index = index
        self.shards = local_shards(index)
        self.requests_total = 0
        self.queries_total = 0

    def _boot(self) -> str:
        return (f"shard serving kind={self.index.kind} "
                f"dim={self.index.dim} entries={len(self.index)} "
                f"local_shards={len(self.shards)}")

    def _account(self, status: int, latency: float, n_queries: int) -> None:
        self.requests_total += 1
        self.queries_total += n_queries

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _respond(self, request: Request) -> tuple[int, dict, int]:
        if request.target == "/healthz":
            if request.method != "GET":
                return 405, {"error": "/healthz takes GET"}, 0
            return 200, {
                "status": "ok",
                "spec": index_spec_payload(self.index),
                "entries": len(self.index),
                "shards": len(self.shards),
                "model_id": self.index.model_id,
                "format_version": self.index.format_version,
                "generation": self.index.generation,
            }, 0
        if request.target in ("/partial_query", "/brute_query"):
            if request.method != "POST":
                return 405, {"error": f"{request.target} takes POST"}, 0
            return await self._respond_query(
                request, brute=request.target == "/brute_query")
        return 404, {"error": f"no route {request.target!r}"}, 0

    async def _respond_query(self, request: Request,
                             brute: bool) -> tuple[int, dict, int]:
        try:
            matrix, k, excludes, _single = parse_query_payload(
                request.body, self.index.dim)
        except ProtocolError as error:
            return error.status, {"error": error.message}, 0
        # Snapshot the generation *before* computing: if a writer were
        # to mutate between the GEMM and the stamp, the coordinator's
        # cache must see the pre-answer generation (its store-drop belt
        # handles the race, same as the local engine's).
        generation = self.index.generation
        call = self._brute_shards if brute else self._partial_shards
        shards = call(matrix, k, excludes)
        return 200, {"generation": generation, "shards": shards}, len(matrix)

    def _partial_shards(self, matrix, k, excludes) -> list[dict]:
        """One wire entry per local shard, in shard order: per query,
        the LSH candidate count and the top-k among those candidates."""
        out = []
        for shard in self.shards:
            partials = shard.query_partial_many(matrix, k, excludes=excludes)
            out.append({"queries": [{"count": count,
                                     "hits": format_hits(hits)}
                                    for count, hits in partials]})
        return out

    def _brute_shards(self, matrix, k, excludes) -> list[dict]:
        """Brute-force rankings per local shard (the coordinator asks
        for these only for queries whose *global* candidate total fell
        below k)."""
        out = []
        for shard in self.shards:
            rankings = shard.query_brute_many(matrix, k, excludes=excludes)
            out.append({"queries": [{"hits": format_hits(hits)}
                                    for hits in rankings]})
        return out


class ShardServerThread(ServerThread):
    """A :class:`ShardServer` on a background thread's event loop — the
    in-process harness tests and benchmarks boot cluster members with."""

    server_class = ShardServer
