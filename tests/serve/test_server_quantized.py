"""Served quantized rankings ≡ offline unquantized rankings.

The quantized tier composes with the whole serving stack — dispatcher
micro-batching, result cache, catalog routing — *because* its rankings
are bit-identical to the fp path.  These tests pin that end to end: a
server over a quantized layout (``open_index(..., quantized=True)``,
the ``serve --quantized`` path) answers every query with exactly the
hits an offline unquantized index produces, and /healthz + /stats
report the quantization state.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.index import open_index
from repro.serve import ServeConfig, ServerThread

from serveutil import http_request, make_corpus, save_layout


def offline_rankings(path, queries, k):
    index = open_index(path)
    return [[(hit.key, round(hit.score, 9)) for hit in hits]
            for hits in index.query_many(queries, k=k)]


def post_query(port, vector, k, **extra):
    payload = {"vector": list(map(float, vector)), "k": k, **extra}
    status, body = http_request(port, "POST", "/query",
                                json.dumps(payload).encode())
    assert status == 200, body
    return [(hit["key"], round(hit["score"], 9))
            for hit in json.loads(body)["hits"]]


@pytest.mark.parametrize("n_shards", [1, 3])
def test_served_quantized_equals_offline_unquantized(tmp_path, n_shards):
    keys, vectors = make_corpus(n=120, dim=16, seed=5)
    path = save_layout(tmp_path, keys, vectors, n_shards, seed=0)
    quantized = open_index(path)
    quantized.quantize()
    quantized.save(path)

    rng = np.random.default_rng(6)
    queries = np.vstack([vectors[:4], rng.standard_normal((4, 16))])
    want = offline_rankings(path, queries, k=6)

    target = open_index(path, mmap=True, quantized=True)
    assert target.use_quantized
    with ServerThread(target, config=ServeConfig(max_wait_ms=1.0)) as handle:
        got = [post_query(handle.port, query, 6) for query in queries]
        # Cache hit path must serve the same (identical) ranking.
        again = post_query(handle.port, queries[0], 6)
    assert got == want
    assert again == want[0]


def test_healthz_and_stats_report_quantization(tmp_path):
    keys, vectors = make_corpus(n=60, dim=16, seed=7)
    path = save_layout(tmp_path, keys, vectors, 1, seed=0)
    quantized = open_index(path)
    quantized.quantize()
    quantized.save(path)

    with ServerThread(open_index(path, mmap=True, quantized=True),
                      config=ServeConfig(max_wait_ms=1.0)) as handle:
        status, body = http_request(handle.port, "GET", "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["quantized"] is True
        assert health["quantized_scoring"] is True
        post_query(handle.port, vectors[0], 3)
        status, body = http_request(handle.port, "GET", "/stats")
        assert status == 200
        sections = json.loads(body)["indexes"]
        assert all(section["quantized"] and section["quantized_scoring"]
                   for section in sections.values())


def test_unquantized_server_reports_false(tmp_path):
    keys, vectors = make_corpus(n=30, dim=16, seed=8)
    path = save_layout(tmp_path, keys, vectors, 1, seed=0)
    with ServerThread(open_index(path, mmap=True),
                      config=ServeConfig(max_wait_ms=1.0)) as handle:
        status, body = http_request(handle.port, "GET", "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["quantized"] is False
        assert health["quantized_scoring"] is False


def test_sidecar_without_opt_in_serves_fp_path(tmp_path):
    """A quantized layout served *without* --quantized must behave as
    before: sidecar attached (healthz says so) but scoring untouched."""
    keys, vectors = make_corpus(n=60, dim=16, seed=9)
    path = save_layout(tmp_path, keys, vectors, 1, seed=0)
    quantized = open_index(path)
    quantized.quantize()
    quantized.save(path)
    want = offline_rankings(path, vectors[:3], k=5)
    with ServerThread(open_index(path, mmap=True),
                      config=ServeConfig(max_wait_ms=1.0)) as handle:
        health = json.loads(http_request(handle.port, "GET", "/healthz")[1])
        assert health["quantized"] is True
        assert health["quantized_scoring"] is False
        got = [post_query(handle.port, query, 5) for query in vectors[:3]]
    assert got == want


def test_server_thread_rejects_missing_sidecar(tmp_path):
    keys, vectors = make_corpus(n=30, dim=16, seed=10)
    path = save_layout(tmp_path, keys, vectors, 1, seed=0)
    with pytest.raises(ValueError, match="quantize"):
        ServerThread(open_index(path), config=ServeConfig(quantized=True))
