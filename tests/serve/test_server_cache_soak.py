"""Cache soak: 8 clients hammering a small keyspace through the
result cache — zero bleed, counters that add up.

The cache adds three new ways a response could go wrong under
concurrency: an exact entry served to the wrong request (fingerprint
collision/race), a semantic shortlist rescored for the wrong query, or
a cross-index mix-up (two indexes' caches sharing state).  The soak
drives a two-index catalog with a deliberately tiny query pool — the
hit path dominates, exactly where those bugs live — and checks every
response against the offline expectation for *its* (index, query, k,
exclude), with a ``no_cache`` minority riding along to exercise the
bypass partition in mixed ticks.

Afterwards the books must balance, per index: ``exact_hits +
semantic_hits + misses + bypassed == queries_total``.
"""

import json
import random
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from serveutil import (
    http_request,
    make_corpus,
    offline_ranking,
    post_query,
    save_layout,
    served_ranking,
)

from repro.catalog import Catalog, CatalogEntry
from repro.index import open_index
from repro.serve import ServeConfig, ServerThread

DIM = 16
N_QUERIES = 6
KS = (3, 7)
N_CLIENTS = 8
REQUESTS_PER_CLIENT = 30
INDEX_NAMES = ("alpha", "beta")


@pytest.fixture(scope="module")
def cache_soak(tmp_path_factory):
    """Two-index catalog server (cache on) + per-index offline truth
    over the small query pool."""
    tmp = tmp_path_factory.mktemp("cache-soak")
    queries = {}
    expected = {}
    catalog = Catalog(root=tmp)
    for position, name in enumerate(INDEX_NAMES):
        keys, vectors = make_corpus(n=150, dim=DIM, seed=40 + position)
        n_shards = 2 if position else 1
        path = save_layout(tmp, keys, vectors, n_shards, seed=40 + position)
        # save_layout names fixed files; separate per index via rename.
        target = tmp / f"{name}{'.npz' if n_shards == 1 else ''}"
        path.rename(target)
        catalog.add(CatalogEntry(name=name, path=target.name, kind="vector",
                                 default=(position == 0)))
        index = open_index(target)
        pool = np.array(vectors[:: len(vectors) // N_QUERIES][:N_QUERIES])
        queries[name] = pool
        top_keys = [hits[0].key
                    for hits in index.query_many(pool, k=1)]
        for k in KS:
            for q in range(N_QUERIES):
                for exclude in (None, top_keys[q]):
                    excludes = [exclude]
                    hits = index.query_many(pool[q:q + 1], k=k,
                                            excludes=excludes)[0]
                    expected[(name, q, k, exclude)] = offline_ranking(hits)
        queries[name + ":top"] = top_keys
    catalog.save()
    config = ServeConfig(max_wait_ms=2.0, max_batch=16, cache_size=64)
    with ServerThread(catalog, config=config) as handle:
        yield handle, queries, expected


class TestCacheSoak:
    def test_eight_clients_small_keyspace_no_bleed(self, cache_soak):
        handle, queries, expected = cache_soak

        def client(worker: int) -> int:
            rng = random.Random(1000 + worker)
            checked = 0
            for _ in range(REQUESTS_PER_CLIENT):
                name = rng.choice(INDEX_NAMES)
                q = rng.randrange(N_QUERIES)
                k = rng.choice(KS)
                exclude = (queries[name + ":top"][q]
                           if rng.random() < 0.3 else None)
                payload = {"index": name,
                           "vector": queries[name][q].tolist(), "k": k}
                if exclude is not None:
                    payload["exclude"] = exclude
                if rng.random() < 0.15:
                    payload["no_cache"] = True
                status, reply = post_query(handle.port, payload)
                assert status == 200
                assert served_ranking(reply["hits"]) \
                    == expected[(name, q, k, exclude)], \
                    f"bleed: {name} q{q} k{k} exclude={exclude!r}"
                checked += 1
            return checked

        with ThreadPoolExecutor(max_workers=N_CLIENTS) as pool:
            totals = list(pool.map(client, range(N_CLIENTS)))
        assert sum(totals) == N_CLIENTS * REQUESTS_PER_CLIENT

        status, body = http_request(handle.port, "GET", "/stats")
        assert status == 200
        per_index = json.loads(body)["indexes"]
        grand_served = 0
        grand_hits = 0
        for name in INDEX_NAMES:
            section = per_index[name]
            cache = section["cache"]
            assert (cache["exact_hits"] + cache["semantic_hits"]
                    + cache["misses"] + cache["bypassed"]) \
                == section["queries"], \
                f"{name}: cache counters must partition the queries"
            grand_served += section["queries"]
            grand_hits += cache["exact_hits"] + cache["semantic_hits"]
        assert grand_served == N_CLIENTS * REQUESTS_PER_CLIENT
        # Tiny keyspace, many repeats: the cache must actually be doing
        # the serving, not just passing traffic through.
        assert grand_hits > grand_served // 2
