"""Corpora, layouts, catalogs, rankings and HTTP calls every suite
shares.

Corpora are seeded gaussian vectors with *duplicate rows* (every
vector appears ``DUP_EVERY`` times under distinct keys), so score ties
are dense: exactly where a wrong merge order, a scrambled micro-batch
demux, a cache entry served to the wrong query or a float that did not
survive the wire would change a ranking.  Rankings compare as exact
``(key, score)`` pairs, never rounded: JSON round-trips floats exactly
(repr-based), so a served score equals the offline one bit for bit.
"""

from __future__ import annotations

import http.client
import json

import numpy as np

from repro.catalog import Catalog, CatalogEntry
from repro.index import IndexSpec, ShardedIndex, VectorIndex

#: Each distinct vector appears this many times (distinct keys).
DUP_EVERY = 3


def make_corpus(n: int = 120, dim: int = 12, seed: int = 0):
    """``(keys, vectors)`` with every vector duplicated ``DUP_EVERY``
    times under different keys; keys are zero-padded, so key order is
    insertion order."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(((n + DUP_EVERY - 1) // DUP_EVERY, dim))
    vectors = np.repeat(base, DUP_EVERY, axis=0)[:n]
    return [f"t{i:05d}" for i in range(n)], vectors


def build_index(keys, vectors, n_shards: int, seed: int = 0):
    """A single :class:`VectorIndex` (``n_shards == 1``) or a
    :class:`ShardedIndex` over the corpus."""
    dim = vectors.shape[1]
    if n_shards == 1:
        index = VectorIndex(dim=dim, seed=seed)
    else:
        index = ShardedIndex.create(
            IndexSpec(kind="vector", dim=dim, seed=seed), n_shards)
    index.add_batch(keys, vectors)
    return index


def save_layout(tmp_path, keys, vectors, n_shards: int, seed: int = 0,
                name: str = "index"):
    """Persist the corpus as ``{name}.npz`` (``n_shards == 1``) or as
    the sharded directory ``{name}``; returns the saved path for
    ``open_index``."""
    index = build_index(keys, vectors, n_shards, seed=seed)
    return index.save(tmp_path / (f"{name}.npz" if n_shards == 1 else name))


def write_catalog(root, layouts: dict[str, object],
                  default: str | None = None) -> Catalog:
    """A saved catalog whose entries point at ``layouts`` (name ->
    already-saved path inside ``root``)."""
    catalog = Catalog(root=root)
    for name, path in layouts.items():
        catalog.add(CatalogEntry(name=name,
                                 path=str(path.relative_to(root)),
                                 kind="vector", default=name == default))
    catalog.save()
    return catalog


def ranked(hits) -> list[tuple[str, float]]:
    """Offline ``SearchHit`` lists or wire hits (JSON objects) as
    comparable ``(key, score)`` pairs."""
    return [(hit["key"], hit["score"]) if isinstance(hit, dict)
            else (hit.key, hit.score) for hit in hits]


def ranked_many(hits_per_query) -> list[list[tuple[str, float]]]:
    return [ranked(hits) for hits in hits_per_query]


def http_request(port: int, method: str, path: str,
                 body: bytes | None = None, timeout: float = 30.0):
    """One request against a local server over a fresh connection;
    returns ``(status, headers, bytes)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def post_json(port: int, path: str, payload: dict, timeout: float = 30.0):
    """POST a JSON payload; returns ``(status, parsed)``."""
    status, _headers, data = http_request(
        port, "POST", path, json.dumps(payload).encode(), timeout=timeout)
    return status, json.loads(data)


def post_query(port: int, payload: dict, timeout: float = 30.0):
    """``POST /query``; returns ``(status, parsed)``."""
    return post_json(port, "/query", payload, timeout=timeout)


def get_json(port: int, path: str, timeout: float = 30.0):
    """GET a JSON endpoint; returns ``(status, parsed)``."""
    status, _headers, data = http_request(port, "GET", path, timeout=timeout)
    return status, json.loads(data)
