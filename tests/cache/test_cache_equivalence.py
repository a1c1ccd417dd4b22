"""Property layer: cached answers ARE the uncached answers — exactly.

Hypothesis walks random corpora × shard counts {1, 2, 5} × mmap ×
zipfian query streams through the result cache of the serving
:class:`~repro.serve.MicroBatchDispatcher` and requires every served ranking — keys,
bit-equal scores, tie order — to match the same index's plain
``query_many``.  Because the stream is
zipfian, most examples serve a mix of hits and misses in one batch;
because the corpora are duplicate-dense and the queries include exact
corpus rows, ties are everywhere a demux bug could hide.

A dedicated class pins the brute-force fallback boundary: ``k`` right
at the post-exclude candidate total, replayed from the cache under
several ``k`` — an entry shared across ``k`` would flip a query on or
off the brute-force path.
"""

import numpy as np
import pytest
from cacheutil import (
    build_index,
    make_corpus,
    ranked_many,
    save_layout,
    zipfian_stream,
)
from dispatchutil import cached, dispatch
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.index import open_index

DIM = 12
SHARD_COUNTS = (1, 2, 5)


class TestCachedEqualsUncached:
    @pytest.fixture(scope="class")
    def layouts(self, tmp_path_factory):
        """One tie-dense saved layout per shard count, built once; the
        hypothesis examples reopen them (mmap or eager) per run."""
        built = {}
        for n_shards in SHARD_COUNTS:
            tmp = tmp_path_factory.mktemp(f"cache-shards{n_shards}")
            keys, vectors = make_corpus(n=90, dim=DIM, seed=7)
            built[n_shards] = (save_layout(tmp, keys, vectors, n_shards,
                                           seed=7), keys, vectors)
        return built

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(n_shards=st.sampled_from(SHARD_COUNTS), mmap=st.booleans(),
           seed=st.integers(0, 2**16), k=st.integers(1, 12),
           stream_len=st.integers(6, 48),
           cache_entries=st.sampled_from([2, 8, 64]),
           with_excludes=st.booleans())
    def test_zipfian_stream_matches_query_many(self, layouts, n_shards,
                                               mmap, seed, k, stream_len,
                                               cache_entries, with_excludes):
        path, keys, vectors = layouts[n_shards]
        index = open_index(path, mmap=mmap)
        dispatcher = cached(index, cache_entries)
        rng = np.random.default_rng(seed)
        # Pool: exact corpus rows (score-1 ties), tiny jitters of them
        # (near-duplicates must never share an entry), fresh gaussians.
        rows = rng.integers(0, len(keys), size=4)
        pool = np.concatenate([
            vectors[rows],
            vectors[rows[:2]] + rng.normal(scale=1e-9, size=(2, DIM)),
            rng.standard_normal((3, DIM)),
        ])
        stream = zipfian_stream(rng, len(pool), stream_len)
        exclude_pool = [None, keys[0], keys[int(rows[0])]]
        cursor = 0
        while cursor < len(stream):
            size = int(rng.integers(1, 6))
            batch = stream[cursor:cursor + size]
            cursor += size
            matrix = pool[batch]
            excludes = ([str(rng.choice(
                             [e for e in exclude_pool if e is not None]))
                         if rng.random() < 0.5 else None
                         for _ in batch] if with_excludes
                        else [None] * len(batch))
            got = dispatch(dispatcher, matrix, k, excludes)
            want = index.query_many(matrix, k=k, excludes=excludes)
            assert ranked_many(got) == ranked_many(want)
        counters = dispatcher.counters
        assert counters.exact_hits + counters.misses == len(stream)
        if stream_len > len(pool) * 2 and cache_entries >= len(pool):
            # A zipfian stream much longer than its pool must actually
            # exercise the hit path, or this test proves nothing.
            assert counters.exact_hits > 0

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(n_shards=st.sampled_from(SHARD_COUNTS),
           seed=st.integers(0, 2**16), repeats=st.integers(2, 4),
           no_cache_round=st.booleans())
    def test_no_cache_rounds_interleave_cleanly(self, layouts, n_shards,
                                                seed, repeats,
                                                no_cache_round):
        """Bypassed rounds neither read nor write; cached rounds around
        them still serve exact answers."""
        path, _keys, _vectors = layouts[n_shards]
        index = open_index(path, mmap=True)
        dispatcher = cached(index, 16)
        rng = np.random.default_rng(seed)
        matrix = rng.standard_normal((3, DIM))
        want = ranked_many(index.query_many(matrix, k=5))
        for round_number in range(repeats):
            bypass = no_cache_round and round_number % 2 == 1
            got = dispatch(dispatcher, matrix, 5, no_cache=bypass)
            assert ranked_many(got) == want
        if no_cache_round:
            assert dispatcher.counters.bypassed == 3 * (repeats // 2)
        assert len(dispatcher.cache) <= 3


class TestFallbackBoundary:
    """``k`` at the exact brute-force threshold: the fallback fires
    when a query's *post-exclude global* candidate count is below its
    ``k``, and a cached answer must be the one for *that* ``k``."""

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(n_shards=st.sampled_from(SHARD_COUNTS),
           seed=st.integers(0, 2**16), offset=st.sampled_from([-1, 0, 1]),
           exclude_hit=st.booleans())
    def test_k_at_the_candidate_total(self, n_shards, seed, offset,
                                      exclude_hit):
        rng = np.random.default_rng(seed)
        keys, vectors = make_corpus(n=24, dim=DIM, seed=seed % 97)
        index = build_index(keys, vectors, n_shards, seed=0)
        dispatcher = cached(index, 16)
        query = vectors[int(rng.integers(0, len(keys)))][None, :]
        # The global LSH candidate total for this query decides the
        # boundary; pin k right at it (clamped to >= 1).
        if n_shards == 1:
            total = len(index.lsh.candidates_many(query)[0])
        else:
            total = sum(len(shard.lsh.candidates_many(query)[0])
                        for shard in index.shards)
        k = max(1, total + offset)
        excludes = [keys[0] if exclude_hit else None]
        for _ in range(3):  # miss, then exact hit, then exact hit
            got = dispatch(dispatcher, query, k, excludes)
            want = index.query_many(query, k=k, excludes=excludes)
            assert ranked_many(got) == ranked_many(want)
        # Different k on the same vector: its own entry each, still
        # crossing the boundary correctly.
        for k2 in {max(1, total - 1), max(1, total), total + 1}:
            got = dispatch(dispatcher, query, k2, excludes)
            want = index.query_many(query, k=k2, excludes=excludes)
            assert ranked_many(got) == ranked_many(want)


class TestExcludeRegression:
    """The latent-hazard fix at dispatcher level: two requests differing
    only in ``exclude`` must not share a cache entry."""

    def test_exclude_variants_are_cached_separately(self):
        keys, vectors = make_corpus(n=60, dim=DIM, seed=3)
        index = build_index(keys, vectors, 1, seed=0)
        dispatcher = cached(index, 16)
        query = vectors[0][None, :]
        top = index.query_many(query, k=3)[0][0].key
        with_none = dispatch(dispatcher, query, 3, [None])
        with_top = dispatch(dispatcher, query, 3, [top])
        # Both answers exact...
        assert ranked_many(with_none) == ranked_many(
            index.query_many(query, k=3, excludes=[None]))
        assert ranked_many(with_top) == ranked_many(
            index.query_many(query, k=3, excludes=[top]))
        # ...and genuinely different: the excluded key is gone.
        assert top in [hit.key for hit in with_none[0]]
        assert top not in [hit.key for hit in with_top[0]]
        # Replay both from cache; the entries must not have collided.
        assert ranked_many(dispatch(dispatcher, query, 3, [None])) \
            == ranked_many(with_none)
        assert ranked_many(dispatch(dispatcher, query, 3, [top])) \
            == ranked_many(with_top)
        assert dispatcher.counters.exact_hits == 2
