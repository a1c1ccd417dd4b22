"""Soak/concurrency tests: no cross-request bleed under fire.

The failure mode these hunt is specific to micro-batching: the
dispatcher stacks concurrent requests into one matrix and must hand
each request back *its own* rows.  With a corpus full of duplicate
vectors (dense score ties) and clients hammering from many threads,
an off-by-one in the demux, a race on the pending list, or a
shape-dependent kernel would all show up as one request receiving a
neighbour's ranking.  Every response is therefore checked against the
offline expectation *for that exact query* — precomputed once, so the
comparison itself cannot race.

Batch compositions (which query, which k, single vs batch shape, how
many worker threads fire them) are hypothesis-driven against one
long-lived server; a deterministic sweep then covers shards {1, 2, 5}
× client threads {1, 4, 8} for the acceptance grid.
"""

import itertools
import json
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from serveutil import (
    http_request,
    make_corpus,
    offline_ranking,
    post_query,
    save_layout,
    served_ranking,
)

from repro.index import open_index
from repro.serve import ServeConfig, ServerThread

DIM = 16
N_QUERIES = 12
KS = (1, 4, 9)


def _expected(index, queries):
    """Offline truth per (query position, k)."""
    return {(q, k): offline_ranking(hits)
            for k in KS
            for q, hits in enumerate(index.query_many(queries, k=k))}


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(n=180, dim=DIM, seed=23)


@pytest.fixture(scope="module")
def queries(corpus):
    _keys, vectors = corpus
    # All queries are corpus rows: every ranking is tie-dense, the
    # worst case for demux mix-ups staying invisible.
    return np.array(vectors[:: len(vectors) // N_QUERIES][:N_QUERIES])


@pytest.fixture(scope="module")
def soak_server(tmp_path_factory, corpus, queries):
    """One server (2 shards, mmap) plus its offline expectations,
    shared by every hypothesis example."""
    keys, vectors = corpus
    path = save_layout(tmp_path_factory.mktemp("soak"), keys, vectors, 2)
    expected = _expected(open_index(path), queries)
    config = ServeConfig(max_wait_ms=5.0, max_batch=16)
    with ServerThread(open_index(path, mmap=True), config=config) as handle:
        yield handle, expected


#: One request spec: (query position, k).  Hypothesis composes lists of
#: them, a worker count, and a shape flag (single requests vs batches).
request_specs = st.lists(
    st.tuples(st.integers(0, N_QUERIES - 1), st.sampled_from(KS)),
    min_size=1, max_size=16)


class TestHypothesisCompositions:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(specs=request_specs, n_workers=st.integers(1, 8),
           as_batch=st.booleans())
    def test_every_response_matches_its_own_query(self, soak_server, queries,
                                                  specs, n_workers, as_batch):
        handle, expected = soak_server
        if as_batch:
            # One multi-vector request per k group: the in-request batch
            # must coalesce with whatever else is in flight and still
            # demux cleanly.
            groups: dict[int, list[int]] = {}
            for q, k in specs:
                groups.setdefault(k, []).append(q)
            jobs = list(groups.items())

            def run_one(item):
                k, members = item
                status, payload = post_query(
                    handle.port,
                    {"vectors": [queries[q].tolist() for q in members],
                     "k": k})
                assert status == 200
                return [(q, k, served_ranking(result["hits"]))
                        for q, result in zip(members, payload["results"])]
        else:
            jobs = specs

            def run_one(item):
                q, k = item
                status, payload = post_query(
                    handle.port, {"vector": queries[q].tolist(), "k": k})
                assert status == 200
                return [(q, k, served_ranking(payload["hits"]))]

        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            outcomes = [entry for result in pool.map(run_one, jobs)
                        for entry in result]
        assert len(outcomes) == len(specs)
        for q, k, got in outcomes:
            assert got == expected[(q, k)], (
                f"cross-request bleed: query {q} (k={k}) got another "
                f"request's ranking")


class TestTwoIndexSoak:
    @pytest.fixture(scope="class")
    def routed_server(self, tmp_path_factory, corpus, queries):
        """One catalog server over two entries built from *different*
        slices of the tie-dense corpus (disjoint key prefixes), plus
        per-entry offline expectations.  max_open=1 keeps open/evict
        churn running underneath the whole soak."""
        from repro.catalog import Catalog, CatalogEntry
        from repro.index import VectorIndex, save_index

        keys, vectors = corpus
        root = tmp_path_factory.mktemp("routed")
        catalog = Catalog(root=root)
        half = len(keys) // 2
        slices = {"alpha": ("a", slice(None, half)),
                  "beta": ("b", slice(half, None))}
        expected = {}
        for name, (prefix, rows) in slices.items():
            index = VectorIndex(dim=DIM, seed=5)
            part = vectors[rows]
            index.add_batch([f"{prefix}{i:05d}" for i in range(len(part))],
                            part)
            save_index(index, root / f"{name}.npz")
            catalog.add(CatalogEntry(name=name, path=f"{name}.npz",
                                     kind="vector"))
            expected[name] = _expected(index, queries)
        catalog.save()
        config = ServeConfig(max_wait_ms=2.0, max_batch=8, max_open=1)
        with ServerThread(catalog, config=config) as handle:
            yield handle, expected, {name: prefix for name, (prefix, _rows)
                                     in slices.items()}

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(specs=request_specs, n_workers=st.integers(2, 8),
           names=st.lists(st.sampled_from(["alpha", "beta"]),
                          min_size=1, max_size=16))
    def test_routed_traffic_never_bleeds_across_indexes(
            self, routed_server, queries, specs, n_workers, names):
        """Concurrent clients hammer both entries of a max_open=1
        catalog: every response must carry its own entry's keys (the
        prefixes are disjoint, so one foreign key is proof of bleed)
        and exactly its own entry's offline ranking."""
        handle, expected, prefixes = routed_server
        jobs = [(name, q, k) for (q, k), name
                in zip(specs, itertools.cycle(names))]

        def run_one(job):
            name, q, k = job
            status, payload = post_query(
                handle.port, {"vector": queries[q].tolist(), "k": k,
                              "index": name})
            assert status == 200
            return name, q, k, served_ranking(payload["hits"])

        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            outcomes = list(pool.map(run_one, jobs))
        for name, q, k, got in outcomes:
            assert all(key.startswith(prefixes[name]) for key, _ in got), (
                f"cross-index bleed: {name!r} returned foreign keys")
            assert got == expected[name][(q, k)], (
                f"routed query {q} (k={k}) on {name!r} diverged from "
                f"that entry's offline ranking")


class TestThreadSweep:
    @pytest.mark.parametrize("n_shards", [1, 2, 5])
    @pytest.mark.parametrize("n_clients", [1, 4, 8])
    def test_concurrent_clients_get_their_own_results(
            self, tmp_path, corpus, queries, n_shards, n_clients):
        keys, vectors = corpus
        path = save_layout(tmp_path, keys, vectors, n_shards)
        expected = _expected(open_index(path), queries)
        per_client = 12
        spec_cycle = itertools.cycle(
            [(q, k) for q in range(N_QUERIES) for k in KS])
        workloads = [[next(spec_cycle) for _ in range(per_client)]
                     for _ in range(n_clients)]
        failures: list[str] = []

        def client(workload):
            # One persistent keep-alive connection per client thread,
            # like a real serving client.
            import http.client
            conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                              timeout=30)
            try:
                for q, k in workload:
                    body = json.dumps({"vector": queries[q].tolist(),
                                       "k": k}).encode()
                    conn.request("POST", "/query", body=body,
                                 headers={"Content-Type":
                                          "application/json"})
                    response = conn.getresponse()
                    payload = json.loads(response.read())
                    if response.status != 200:
                        failures.append(f"status {response.status}")
                    elif served_ranking(payload["hits"]) != expected[(q, k)]:
                        failures.append(f"bleed at query {q} k={k}")
            finally:
                conn.close()

        config = ServeConfig(max_wait_ms=2.0, max_batch=8)
        with ServerThread(open_index(path, mmap=True),
                          config=config) as handle:
            threads = [threading.Thread(target=client, args=(workload,))
                       for workload in workloads]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            status, data = http_request(handle.port, "GET", "/stats")
        assert not failures, failures[:5]
        assert status == 200
        snapshot = json.loads(data)
        assert snapshot["queries_total"] == n_clients * per_client
        assert snapshot["responses_by_status"]["200"] == \
            n_clients * per_client
        assert snapshot["batch"]["dispatched"] >= 1
