"""Shard-server wire contract: what ``/partial_query`` /
``/brute_query`` / ``/healthz`` return is exactly what the local
per-shard calls (`query_partial_many` / `query_brute_many`) compute —
counts, keys, bit-equal scores — one entry per local shard in shard
order, plus the generation stamp the coordinator's cache keys on."""

import json

import pytest
from clusterutil import query_pool
from testutil import (
    get_json,
    http_request,
    make_corpus,
    post_json,
    ranked,
    save_layout,
)

from repro.cluster import ShardServerThread
from repro.index import FORMAT_VERSION, open_index

DIM = 16


@pytest.fixture(scope="module", params=[1, 3])
def layout(request, tmp_path_factory):
    tmp = tmp_path_factory.mktemp(f"shardsrv{request.param}")
    keys, vectors = make_corpus(n=60, dim=DIM, seed=3)
    path = save_layout(tmp, keys, vectors, request.param, seed=3)
    return path, vectors, request.param


@pytest.fixture(scope="module")
def server(layout):
    path, _vectors, _n = layout
    with ShardServerThread(open_index(path, mmap=True)) as handle:
        yield handle


def test_healthz_reports_identity(layout, server):
    path, _vectors, n_shards = layout
    index = open_index(path)
    status, payload = get_json(server.port, "/healthz")
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["entries"] == len(index)
    assert payload["shards"] == n_shards
    assert payload["format_version"] == FORMAT_VERSION
    assert payload["generation"] == index.generation
    spec = payload["spec"]
    assert spec["kind"] == index.kind
    assert spec["dim"] == DIM
    assert {"n_planes", "n_bands", "seed"} <= set(spec)


def test_partial_query_matches_local_per_shard(layout, server):
    path, vectors, n_shards = layout
    index = open_index(path, mmap=True)
    shards = list(index.shards) if n_shards > 1 else [index]
    matrix = query_pool(vectors)
    status, payload = post_json(server.port, "/partial_query",
                                {"vectors": matrix.tolist(), "k": 5})
    assert status == 200
    assert payload["generation"] == index.generation
    assert len(payload["shards"]) == n_shards
    for shard, wire in zip(shards, payload["shards"]):
        local = shard.query_partial_many(matrix, 5,
                                         excludes=[None] * len(matrix))
        assert len(wire["queries"]) == len(matrix)
        for (count, hits), entry in zip(local, wire["queries"]):
            assert entry["count"] == count
            assert ranked(entry["hits"]) == ranked(hits)


def test_brute_query_matches_local_per_shard(layout, server):
    path, vectors, n_shards = layout
    index = open_index(path, mmap=True)
    shards = list(index.shards) if n_shards > 1 else [index]
    matrix = query_pool(vectors)[:3]
    status, payload = post_json(server.port, "/brute_query",
                                {"vectors": matrix.tolist(), "k": 4})
    assert status == 200
    for shard, wire in zip(shards, payload["shards"]):
        local = shard.query_brute_many(matrix, 4,
                                       excludes=[None] * len(matrix))
        for hits, entry in zip(local, wire["queries"]):
            assert "count" not in entry
            assert ranked(entry["hits"]) == ranked(hits)


def test_excludes_are_honored(layout, server):
    path, vectors, n_shards = layout
    index = open_index(path, mmap=True)
    shards = list(index.shards) if n_shards > 1 else [index]
    matrix = vectors[:2]
    excludes = ["t00000", None]
    _status, payload = post_json(
        server.port, "/partial_query",
        {"vectors": matrix.tolist(), "k": 6, "excludes": excludes})
    for shard, wire in zip(shards, payload["shards"]):
        local = shard.query_partial_many(matrix, 6, excludes=excludes)
        for (count, hits), entry in zip(local, wire["queries"]):
            assert entry["count"] == count
            assert ranked(entry["hits"]) == ranked(hits)
    served_keys = {hit["key"]
                   for entry in payload["shards"][0]["queries"][:1]
                   for hit in entry["hits"]}
    assert "t00000" not in served_keys


class TestErrorContract:
    def test_bad_json_is_400(self, server):
        status, _headers, data = http_request(server.port, "POST",
                                              "/partial_query", b"{nope")
        assert status == 400
        assert "error" in json.loads(data)

    def test_wrong_dim_is_400(self, server):
        status, payload = post_json(server.port, "/partial_query",
                                    {"vectors": [[1.0] * (DIM + 1)], "k": 3})
        assert status == 400
        assert "dims" in payload["error"]

    def test_bad_k_is_400(self, server):
        status, payload = post_json(server.port, "/brute_query",
                                    {"vectors": [[0.5] * DIM], "k": 0})
        assert status == 400
        assert "k" in payload["error"]

    def test_get_on_query_route_is_405(self, server):
        status, _headers, _data = http_request(server.port, "GET",
                                               "/partial_query")
        assert status == 405

    def test_post_on_healthz_is_405(self, server):
        status, _headers, _data = http_request(server.port, "POST",
                                               "/healthz", b"{}")
        assert status == 405

    def test_unknown_route_is_404(self, server):
        status, _headers, _data = http_request(server.port, "GET", "/nope")
        assert status == 404
