"""Shared helpers for the serving test layer.

Corpora here are raw seeded gaussian vectors with *duplicate rows*
(every vector appears ``DUP_EVERY`` times under distinct keys), so
score ties are dense — exactly the regime where a buggy micro-batch
demux or a non-deterministic merge would scramble rankings.  Queries
are corpus rows plus fresh gaussians, so both the tie-heavy and the
generic path get exercised.
"""

from __future__ import annotations

import http.client
import json

import numpy as np

from repro.index import IndexSpec, ShardedIndex, VectorIndex

#: Each distinct vector appears this many times (distinct keys).
DUP_EVERY = 3


def make_corpus(n: int = 240, dim: int = 24, seed: int = 0):
    """``(keys, vectors)`` with every vector duplicated ``DUP_EVERY``
    times under different keys."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(((n + DUP_EVERY - 1) // DUP_EVERY, dim))
    vectors = np.repeat(base, DUP_EVERY, axis=0)[:n]
    keys = [f"t{i:05d}" for i in range(n)]
    return keys, vectors


def save_layout(tmp_path, keys, vectors, n_shards: int, seed: int = 0):
    """Persist the corpus as a single file (``n_shards == 1``) or a
    sharded directory; returns the saved path for ``open_index``."""
    dim = vectors.shape[1]
    if n_shards == 1:
        index = VectorIndex(dim=dim, seed=seed)
        index.add_batch(keys, vectors)
        return index.save(tmp_path / "index.npz")
    sharded = ShardedIndex.create(
        IndexSpec(kind="vector", dim=dim, seed=seed), n_shards)
    sharded.add_batch(keys, vectors)
    return sharded.save(tmp_path / f"sharded-{n_shards}")


def http_request(port: int, method: str, path: str, body: bytes | None = None,
                 timeout: float = 30.0):
    """One request against a local server; returns ``(status, bytes)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def http_request_full(port: int, method: str, path: str,
                      body: bytes | None = None, timeout: float = 30.0):
    """Like :func:`http_request` but returns ``(status, headers,
    bytes)`` — for tests that assert on response headers (e.g. the
    backpressure layer's ``Retry-After``)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def read_until_closed(sock) -> bytes:
    """Everything the server sends on a raw socket until it closes the
    connection — for tests that must see exactly what went on the wire
    (how many responses, and that the server hung up after them)."""
    received = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return received
        received += chunk


def post_query(port: int, payload: dict, timeout: float = 30.0,
               route: str = "/query"):
    """POST a JSON query payload (to ``/query`` unless another query
    route is named); returns ``(status, parsed)``."""
    status, data = http_request(port, "POST", route,
                                json.dumps(payload).encode(), timeout=timeout)
    return status, json.loads(data)


def served_ranking(hits: list[dict]) -> list[tuple[str, float]]:
    """Wire hits to comparable ``(key, score)`` pairs.  JSON round-trips
    floats exactly (repr-based), so equality against offline scores is
    exact, not approximate."""
    return [(hit["key"], hit["score"]) for hit in hits]


def offline_ranking(hits) -> list[tuple[str, float]]:
    return [(hit.key, hit.score) for hit in hits]
