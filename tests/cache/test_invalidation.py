"""Invalidation layer: a lifecycle op must make every cached entry
unreachable — no stale result, ever.

Three levels:

- dispatcher: hypothesis interleaves ``remove``/``compact``/``merge`` with
  cached query traffic through the serving dispatcher and requires
  each answer to equal a fresh ``query_many`` against the index's
  *current* state;
- server: a lifecycle op between requests is observable as a
  generation bump in ``/stats`` and the next served answer reflects it;
- catalog: LRU eviction drops the cache together with the dispatcher
  (a reopened slot starts cold), while the hit/miss counters survive on
  the slot's stats.
"""

import json
import urllib.request

import numpy as np
import pytest
from cacheutil import build_index, make_corpus, ranked_many, save_layout
from dispatchutil import cached, dispatch
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalog import Catalog, CatalogEntry, CatalogHandle
from repro.index import IndexSpec, ShardedIndex, VectorIndex, open_index
from repro.serve import ServeConfig, ServerThread

DIM = 12
SHARD_COUNTS = (1, 2, 5)


def http_get(port: int, path: str) -> dict:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as reply:
        return json.loads(reply.read())


def post_query(port: int, payload: dict) -> dict:
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/query",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request) as reply:
        return json.loads(reply.read())


class TestEngineLifecycle:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(n_shards=st.sampled_from(SHARD_COUNTS),
           seed=st.integers(0, 2**16),
           ops=st.lists(st.sampled_from(["remove", "compact", "merge",
                                         "query", "query", "query"]),
                        min_size=4, max_size=12))
    def test_interleaved_lifecycle_never_serves_stale(self, n_shards, seed,
                                                      ops):
        rng = np.random.default_rng(seed)
        keys, vectors = make_corpus(n=36, dim=DIM, seed=seed % 89)
        index = build_index(keys, vectors, n_shards, seed=0)
        dispatcher = cached(index, 32)
        live = list(keys)
        extra_keys, extra_vectors = make_corpus(n=6, dim=DIM,
                                                seed=(seed % 89) + 1)
        extra_keys = [f"x{key}" for key in extra_keys]
        merged = False
        pool = np.concatenate([vectors[:4], rng.standard_normal((2, DIM))])
        for op in ops:
            if op == "remove" and live:
                victim = live.pop(int(rng.integers(0, len(live))))
                index.remove(victim)
            elif op == "compact":
                index.compact()
            elif op == "merge" and not merged:
                other = VectorIndex(dim=DIM, seed=0)
                other.add_batch(extra_keys, extra_vectors)
                index.merge(other)
                live.extend(extra_keys)
                merged = True
            # Query traffic between (and after) every mutation: the
            # cache may hit or miss, but the answer must match the
            # index's current state exactly.
            batch = pool[rng.integers(0, len(pool), size=2)]
            got = dispatch(dispatcher, batch, 4)
            want = index.query_many(batch, k=4)
            assert ranked_many(got) == ranked_many(want)

    def test_removed_key_disappears_from_cached_answers(self):
        keys, vectors = make_corpus(n=30, dim=DIM, seed=5)
        index = build_index(keys, vectors, 1, seed=0)
        dispatcher = cached(index, 16)
        query = vectors[0][None, :]
        top = dispatch(dispatcher, query, 3)[0][0].key
        generation_before = dispatcher.generation
        index.remove(top)
        after = dispatch(dispatcher, query, 3)
        assert top not in [hit.key for hit in after[0]]
        assert dispatcher.generation > generation_before
        assert ranked_many(after) == ranked_many(index.query_many(query, k=3))

    def test_generation_change_clears_the_cache(self):
        keys, vectors = make_corpus(n=30, dim=DIM, seed=6)
        index = build_index(keys, vectors, 1, seed=0)
        dispatcher = cached(index, 16)
        dispatch(dispatcher, vectors[::3][:3], 3)  # 3 distinct vectors
        assert len(dispatcher.cache) == 3
        index.compact()  # no tombstones: may or may not bump
        index.remove(keys[0])  # definitely bumps
        dispatch(dispatcher, vectors[9:10], 3)
        # Only the post-bump query's entry remains.
        assert len(dispatcher.cache) == 1

    def test_store_against_moved_generation_is_dropped(self):
        """The submit-to-tick race: a row looked up before a lifecycle
        op must not store its (stale) result after it."""
        keys, vectors = make_corpus(n=30, dim=DIM, seed=7)
        index = build_index(keys, vectors, 1, seed=0)

        class MutatedMidTick:
            """``index``, whose generation moves between the tick's
            ``query_many`` and the store at demux."""

            kind = index.kind

            @property
            def generation(self):
                return index.generation

            def query_many(self, matrix, **kwargs):
                results = index.query_many(matrix, **kwargs)
                index.remove(keys[0])
                return results

        dispatcher = cached(MutatedMidTick(), 16)
        before = index.generation
        [hits] = dispatch(dispatcher, vectors[:1], 3)
        assert dispatcher.counters.misses == 1
        assert index.generation > before
        assert len(hits) == 3
        assert len(dispatcher.cache) == 0

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_sharded_generation_survives_rebalance(self, n_shards):
        """Rebalance resets per-shard counters; the layout generation
        must stay monotonic anyway, or an old cache key could be
        re-minted."""
        keys, vectors = make_corpus(n=30, dim=DIM, seed=8)
        index = build_index(keys, vectors, max(n_shards, 2), seed=0)
        if not isinstance(index, ShardedIndex):
            pytest.skip("single-file layout has no rebalance")
        before = index.generation
        index.rebalance()
        assert index.generation > before


class TestServerLifecycle:
    def test_generation_bump_visible_in_stats_and_answers(self):
        """Mutate the served (pinned, in-memory) index between
        requests: /stats shows the bump and the cached entry is gone."""
        keys, vectors = make_corpus(n=40, dim=DIM, seed=9)
        index = build_index(keys, vectors, 1, seed=0)
        with ServerThread(index,
                          config=ServeConfig(max_wait_ms=1.0)) as thread:
            port = thread.server.port
            query = [float(x) for x in vectors[0]]
            first = post_query(port, {"vector": query, "k": 3})
            top = first["hits"][0]["key"]
            stats = http_get(port, "/stats")["indexes"]["default"]
            generation_before = stats["generation"]
            index.remove(top)
            second = post_query(port, {"vector": query, "k": 3})
            assert top not in [hit["key"] for hit in second["hits"]]
            stats = http_get(port, "/stats")["indexes"]["default"]
            assert stats["generation"] > generation_before
            offline = index.query_many(np.asarray([query]), k=3)
            assert [hit["key"] for hit in second["hits"]] \
                == [hit.key for hit in offline[0]]

    def test_exclude_only_difference_not_shared_over_the_wire(self):
        """Satellite regression, wire level: two requests differing
        only in ``exclude`` must not share a cache entry."""
        keys, vectors = make_corpus(n=40, dim=DIM, seed=10)
        index = build_index(keys, vectors, 1, seed=0)
        with ServerThread(index,
                          config=ServeConfig(max_wait_ms=1.0)) as thread:
            port = thread.server.port
            query = [float(x) for x in vectors[0]]
            plain = post_query(port, {"vector": query, "k": 3})
            top = plain["hits"][0]["key"]
            excluded = post_query(port, {"vector": query, "k": 3,
                                         "exclude": top})
            assert top not in [hit["key"] for hit in excluded["hits"]]
            # Replay both shapes: each must hit its own entry.
            assert post_query(port, {"vector": query, "k": 3}) == plain
            assert post_query(port, {"vector": query, "k": 3,
                                     "exclude": top}) == excluded
            cache = http_get(port, "/stats")["indexes"]["default"]["cache"]
            assert cache == {
                "exact_hits": 2, "semantic_hits": 0, "misses": 2,
                "bypassed": 0, "hit_rate": 0.5, "exact_entries": 2,
                "semantic_entries": 0, "evictions": 0, "expirations": 0}


class TestCatalogEviction:
    def make_handle(self, tmp_path, cache_size=16, cache_ttl=None):
        paths = {}
        for position, name in enumerate(("alpha", "beta")):
            keys, vectors = make_corpus(n=36, dim=DIM, seed=20 + position)
            paths[name] = save_layout(tmp_path, keys, vectors, 1,
                                      seed=20 + position, name=name)
        catalog = Catalog(root=tmp_path)
        for name, path in paths.items():
            catalog.add(CatalogEntry(name=name, path=path.name,
                                     kind="vector",
                                     default=(name == "alpha")))
        return CatalogHandle(catalog, ServeConfig(max_open=1,
                                                  cache_size=cache_size,
                                                  cache_ttl=cache_ttl))

    def test_eviction_drops_cache_with_dispatcher(self, tmp_path):
        handle = self.make_handle(tmp_path)
        alpha = handle.get("alpha")
        assert alpha.dispatcher is not None
        assert alpha.dispatcher.cache is not None
        alpha.dispatcher.cache.put(b"sentinel", ["entry"])
        handle.get("beta")  # max_open=1: evicts alpha
        assert not alpha.open
        assert alpha.dispatcher is None
        reopened = handle.get("alpha")
        assert reopened.dispatcher.cache is not None
        assert reopened.dispatcher.cache.get(b"sentinel") is None, \
            "a reopened slot must start with a cold cache"

    def test_counters_survive_eviction(self, tmp_path):
        handle = self.make_handle(tmp_path)
        alpha = handle.get("alpha")
        keys, vectors = make_corpus(n=36, dim=DIM, seed=20)
        dispatch(alpha.dispatcher, vectors[:2], 3)
        assert alpha.stats.cache.misses == 2
        handle.get("beta")
        reopened = handle.get("alpha")
        assert reopened.stats.cache.misses == 2, \
            "cache counters live on the stats, not the dispatcher"
        dispatch(reopened.dispatcher, vectors[:2], 3)
        assert reopened.stats.cache.misses == 4

    def test_cache_size_zero_disables_caching(self, tmp_path):
        handle = self.make_handle(tmp_path, cache_size=0)
        slot = handle.get("alpha")
        assert slot.dispatcher.cache is None

    def test_serve_config_reaches_the_cache(self, tmp_path):
        """``--cache-size``/``--cache-ttl`` travel through ServeConfig
        and the handle to the slot's cache; with size 0 nothing is
        counted, not even a ``no_cache`` request."""
        slot = self.make_handle(tmp_path, cache_size=4,
                                cache_ttl=30.0).get("alpha")
        assert slot.dispatcher.cache.max_entries == 4
        assert slot.dispatcher.cache.ttl == 30.0
        slot = self.make_handle(tmp_path, cache_size=0).get("alpha")
        _keys, vectors = make_corpus(n=36, dim=DIM, seed=20)
        dispatch(slot.dispatcher, vectors[:2], 3)
        dispatch(slot.dispatcher, vectors[:2], 3, no_cache=True)
        assert slot.stats.cache.snapshot() == {
            "exact_hits": 0, "semantic_hits": 0, "misses": 0,
            "bypassed": 0, "hit_rate": 0.0}

    def test_disabled_cache_has_no_stats_section(self, tmp_path):
        """A no-cache server omits the per-index ``cache`` section from
        ``/stats`` entirely — an all-zero section would break the
        documented ``hits + misses + bypassed == queries`` partition."""
        keys, vectors = make_corpus(n=36, dim=DIM, seed=20)
        path = save_layout(tmp_path, keys, vectors, 1, seed=20)
        index = open_index(path)
        with ServerThread(index,
                          config=ServeConfig(cache_size=0)) as handle:
            reply = post_query(handle.port,
                               {"vector": vectors[0].tolist(), "k": 3})
            assert len(reply["hits"]) == 3
            stats = http_get(handle.port, "/stats")
        section = next(iter(stats["indexes"].values()))
        assert section["queries"] == 1
        assert "cache" not in section


class TestManifestGeneration:
    def test_replace_bumps_the_entry_generation(self, tmp_path):
        keys, vectors = make_corpus(n=24, dim=DIM, seed=30)
        path = save_layout(tmp_path, keys, vectors, 1, seed=30)
        catalog = Catalog(root=tmp_path)
        catalog.add(CatalogEntry(name="main", path=path.name,
                                 kind="vector", default=True))
        assert catalog.entries["main"].generation == 0
        catalog.replace(CatalogEntry(name="main", path=path.name,
                                     kind="vector"))
        assert catalog.entries["main"].generation == 1
        assert catalog.entries["main"].default, \
            "default status carries over on replace"
        catalog.save()
        reloaded = Catalog.load(tmp_path)
        assert reloaded.entries["main"].generation == 1

    def test_replace_unknown_name_is_key_error(self):
        catalog = Catalog()
        with pytest.raises(KeyError):
            catalog.replace(CatalogEntry(name="ghost", path="x",
                                         kind="vector"))

    def test_manifest_rejects_bad_generation(self, tmp_path):
        keys, vectors = make_corpus(n=24, dim=DIM, seed=31)
        path = save_layout(tmp_path, keys, vectors, 1, seed=31)
        manifest = {"catalog_version": 1,
                    "entries": [{"name": "main", "path": path.name,
                                 "kind": "vector", "generation": -1}]}
        (tmp_path / "catalog.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="generation"):
            Catalog.load(tmp_path)

    def test_older_manifest_without_generation_reads_as_zero(self, tmp_path):
        keys, vectors = make_corpus(n=24, dim=DIM, seed=32)
        path = save_layout(tmp_path, keys, vectors, 1, seed=32)
        manifest = {"catalog_version": 1,
                    "entries": [{"name": "main", "path": path.name,
                                 "kind": "vector"}]}
        (tmp_path / "catalog.json").write_text(json.dumps(manifest))
        assert Catalog.load(tmp_path).entries["main"].generation == 0
