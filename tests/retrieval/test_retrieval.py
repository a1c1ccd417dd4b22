"""Cosine similarity, batched exact top-k, and LSH blocking tests."""

import math

import numpy as np
import pytest
from reference import cosine

from repro.eval.tasks import topic_centroid
from repro.index import VectorIndex
from repro.retrieval import (
    CosineLSH,
    cosine_similarity,
    normalize_rows,
    similarity,
    top_k,
)

RNG = np.random.default_rng(9)


def _key(i: int) -> str:
    # Zero-padded, so key order is id order and ties break as by id.
    return f"v{i:04d}"


def _keyed_index(vectors, **lsh_params):
    """A :class:`VectorIndex` over ``vectors``, row ``i`` keyed
    :func:`_key` ``(i)`` — the query path over a bare set of vectors."""
    index = VectorIndex(dim=vectors.shape[1], **lsh_params)
    index.add_batch([_key(i) for i in range(len(vectors))], vectors)
    return index


def _top_k_cases():
    """``name -> (items, queries, k, excludes)`` for the reference pin."""
    rng = np.random.default_rng(21)
    items = rng.standard_normal((40, 5))
    items[[9, 17, 23, 31]] = items[2]   # planted duplicates: exact ties
    with_nan = items.copy()
    with_nan[6, 0] = np.nan
    return {
        "random": (items, rng.standard_normal((3, 5)), 5, None),
        "duplicates": (items, items[[2, 0, 17]], 3, None),
        "zero-query": (items, np.zeros((2, 5)), 30, None),
        "exclude": (items, items[[2, 0, 1]], 5, [2, 0, None]),
        "k-ge-n": (items, items[:3], 40, None),
        "exclude-k-ge-n": (items, items[:3], 50, [0, None, 2]),
        "non-finite": (with_nan, items[:3], 40, [None, 1, None]),
    }


TOP_K_CASES = _top_k_cases()


def reference_rankings(queries, items, k, excludes):
    """Every finite, non-excluded row scored by ``reference.cosine``,
    sorted by ``(-score, id)``, cut at ``k``."""
    out = []
    for query, exclude in zip(queries.tolist(), excludes):
        scored = [(i, cosine(query, item))
                  for i, item in enumerate(items.tolist()) if i != exclude]
        scored = sorted(((i, s) for i, s in scored if math.isfinite(s)),
                        key=lambda pair: (-pair[1], pair[0]))
        out.append(scored[:k])
    return out


class TestSimilarity:
    def test_cosine_identity(self):
        v = RNG.standard_normal(8)
        assert cosine_similarity(v, v) == pytest.approx(1.0)
        assert cosine_similarity(v, -v) == pytest.approx(-1.0)

    def test_cosine_orthogonal(self):
        assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)

    def test_zero_vector_is_zero_similarity(self):
        assert cosine_similarity(np.zeros(4), np.ones(4)) == 0.0

    def test_normalize_rows(self):
        m = RNG.standard_normal((5, 4)) * 10
        normed = normalize_rows(m)
        assert np.allclose(np.linalg.norm(normed, axis=1), 1.0)
        zeros = normalize_rows(np.zeros((2, 3)))
        assert np.allclose(zeros, 0.0)

    def test_top_k_excludes_query(self):
        items = np.eye(4)
        [result] = top_k(items[:1], items, k=3, excludes=[0])
        assert 0 not in [i for i, _s in result]

    def test_top_k_orders_by_similarity(self):
        items = np.array([[1, 0], [0.9, 0.1], [0, 1.0]])
        [result] = top_k(np.array([[1.0, 0.0]]), items, k=3)
        assert [i for i, _s in result][:2] == [0, 1]

    def test_top_k_caps_at_collection_size(self):
        items = RNG.standard_normal((3, 4))
        [result] = top_k(items[:1], items, k=10)
        assert len(result) == 3

    def test_top_k_with_exclusion_still_returns_k(self):
        """Regression: the excluded self-match used to occupy a slot in
        the top-k slice and get filtered afterwards, shrinking results."""
        items = RNG.standard_normal((10, 4))
        [result] = top_k(items[:1], items, k=5, excludes=[0])
        assert len(result) == 5
        assert 0 not in [i for i, _s in result]

    def test_top_k_exclusion_caps_at_remaining(self):
        items = RNG.standard_normal((4, 3))
        [result] = top_k(items[:1], items, k=10, excludes=[0])
        assert len(result) == 3

    @pytest.mark.parametrize("case", list(TOP_K_CASES))
    def test_top_k_matches_reference(self, case, monkeypatch):
        """Ids in ``(-score, id)`` order as the naive reference ranks
        them (ties by index, excluded and non-finite rows never
        returned, short only when fewer rows remain), and a Q-row call
        bit-equal to Q one-row calls across query blocks."""
        items, queries, k, excludes = TOP_K_CASES[case]
        excludes_or_none = excludes or [None] * len(queries)
        monkeypatch.setattr(similarity, "QUERY_BLOCK", 2)
        got = top_k(queries, items, k, excludes)
        want = reference_rankings(queries, items, k, excludes_or_none)
        assert [[i for i, _s in r] for r in got] == \
            [[i for i, _s in r] for r in want]
        for got_r, want_r in zip(got, want):
            assert [s for _i, s in got_r] == \
                pytest.approx([s for _i, s in want_r], abs=1e-12)
        assert got == [top_k(row[None, :], items, k, [exclude])[0]
                       for row, exclude in zip(queries, excludes_or_none)]

    def test_top_k_rejects_bad_shapes(self):
        items = RNG.standard_normal((4, 3))
        with pytest.raises(ValueError, match="query matrix"):
            top_k(items[0], items, k=2)
        with pytest.raises(ValueError, match="align"):
            top_k(items[:2], items, k=2, excludes=[0])


class TestLSH:
    def test_candidates_include_near_duplicates(self):
        lsh = CosineLSH(dim=16, n_planes=6, n_bands=6, seed=0)
        base = RNG.standard_normal(16)
        lsh.add(base)
        lsh.add(base + RNG.standard_normal(16) * 0.01)
        lsh.add(-base)
        [candidates] = lsh.candidates_many(base[None, :])
        assert 0 in candidates and 1 in candidates

    def test_query_finds_planted_duplicates(self):
        """With genuine near-duplicates, LSH top-1 matches brute force.

        (Pure random gaussians have no meaningful neighbours, so this
        plants a near-copy for each query.)
        """
        base = RNG.standard_normal((20, 12))
        noisy = base + RNG.standard_normal((20, 12)) * 0.05
        vectors = np.vstack([base, noisy])
        index = _keyed_index(vectors, n_planes=6, n_bands=8, seed=1)
        excludes = list(range(20))
        got = index.query_many(vectors[:20], k=1,
                               excludes=[_key(i) for i in excludes])
        want = top_k(vectors[:20], vectors, k=1, excludes=excludes)
        hits = sum(g[0].key == _key(w[0][0]) for g, w in zip(got, want))
        assert hits >= 18  # LSH is approximate; near-duplicates must hit

    def test_fallback_to_bruteforce_when_few_candidates(self):
        vectors = RNG.standard_normal((10, 8))
        index = _keyed_index(vectors, n_planes=10, n_bands=1, seed=0)
        # Even if buckets are tiny, query returns k results.
        assert len(index.query_many(vectors[:1], k=5,
                                    excludes=[_key(0)])[0]) == 5

    def test_dimension_check(self):
        lsh = CosineLSH(dim=8)
        with pytest.raises(ValueError):
            lsh.add(np.ones(5))

    def test_query_partial_reports_candidates_without_fallback(self):
        from repro.retrieval import merge_ranked

        vectors = RNG.standard_normal((10, 8))
        index = _keyed_index(vectors, n_planes=10, n_bands=1, seed=0)
        [(n_candidates, hits)] = index.query_partial_many(vectors[:1], k=5)
        assert len(hits) <= n_candidates            # no brute-force top-up
        ranked = [(hit.key, hit.score) for hit in hits]
        assert ranked == sorted(ranked, key=lambda p: (-p[1], p[0]))
        # query_many == partial when candidates suffice, brute force otherwise
        if n_candidates >= 5:
            assert index.query_many(vectors[:1], k=5) == [hits]
        else:
            assert index.query_many(vectors[:1], k=5) \
                == index.query_brute_many(vectors[:1], k=5)
        # merging the single partial with empties reproduces it
        assert merge_ranked([ranked, [], []], 5) == ranked

    def test_query_many_matches_serial_queries(self):
        """Q rows in one call equal Q calls of one row: same candidates
        (shape-independent hashing kernel), same rankings, same
        per-query fallback."""
        vectors = RNG.standard_normal((30, 8))
        index = _keyed_index(vectors, n_planes=6, n_bands=2, seed=0)
        queries = RNG.standard_normal((6, 8))
        for k in (1, 3, 12, 35):
            want = [index.query_many(q[None, :], k=k)[0] for q in queries]
            got = index.query_many(queries, k=k)
            assert [[hit.key for hit in r] for r in got] == \
                [[hit.key for hit in r] for r in want]
            for got_r, want_r in zip(got, want):
                for got_hit, want_hit in zip(got_r, want_r):
                    assert got_hit.score == pytest.approx(want_hit.score,
                                                          abs=1e-12)
        # candidates are bit-identical, so counts agree too
        partials = index.query_partial_many(queries, 5)
        for (count, _r), q in zip(partials, queries):
            assert count == len(index.lsh.candidates_many(q[None, :])[0])

    def test_query_many_excludes_and_validation(self):
        vectors = RNG.standard_normal((10, 8))
        index = _keyed_index(vectors, n_planes=4, n_bands=2, seed=0)
        queries = vectors[:2]
        got = index.query_many(queries, k=10, excludes=[_key(0), None])
        assert _key(0) not in [hit.key for hit in got[0]]
        assert _key(0) in [hit.key for hit in got[1]]
        with pytest.raises(ValueError, match="align"):
            index.query_many(queries, k=2, excludes=[_key(0)])
        with pytest.raises(ValueError, match="at least 1"):
            index.query_many(queries, k=0)
        with pytest.raises(ValueError, match="query matrix"):
            index.query_many(np.ones(8), k=2)

    def test_merge_ranked_global_top_k(self):
        from repro.retrieval import merge_ranked

        left = [("a", 0.9), ("c", 0.5), ("e", 0.1)]
        right = [("b", 0.8), ("d", 0.5), ("f", 0.0)]
        merged = merge_ranked([left, right], 4)
        assert merged == [("a", 0.9), ("b", 0.8), ("c", 0.5), ("d", 0.5)]
        with pytest.raises(ValueError, match="at least 1"):
            merge_ranked([left], 0)

    def test_query_k_below_one_rejected(self):
        index = _keyed_index(np.ones((1, 4)))
        with pytest.raises(ValueError, match="at least 1"):
            index.query_partial_many(np.ones((1, 4)), k=0)
        with pytest.raises(ValueError, match="at least 1"):
            index.query_brute_many(np.ones((1, 4)), k=0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            CosineLSH(dim=0)

    def test_too_many_planes_rejected(self):
        """Packed int64 band keys hold at most 63 sign bits — more would
        silently collide buckets."""
        with pytest.raises(ValueError):
            CosineLSH(dim=8, n_planes=64)
        CosineLSH(dim=8, n_planes=63)  # at the limit is fine

    def test_len(self):
        lsh = CosineLSH(dim=4)
        lsh.add_all(RNG.standard_normal((7, 4)))
        assert len(lsh) == 7

    def test_add_all_matches_sequential_add(self):
        """The vectorized bulk insert must land vectors in the same
        buckets, in the same order, as one-at-a-time adds."""
        vectors = RNG.standard_normal((25, 10))
        bulk = CosineLSH(dim=10, n_planes=7, n_bands=5, seed=4)
        ids = bulk.add_all(vectors)
        one = CosineLSH(dim=10, n_planes=7, n_bands=5, seed=4)
        for v in vectors:
            one.add(v)
        assert ids == list(range(25))
        assert bulk._tables == one._tables
        query = RNG.standard_normal(10)
        assert bulk.candidates_many(query[None, :]) \
            == one.candidates_many(query[None, :])

    def test_add_all_returns_offset_ids(self):
        lsh = CosineLSH(dim=4)
        lsh.add(RNG.standard_normal(4))
        assert lsh.add_all(RNG.standard_normal((3, 4))) == [1, 2, 3]

    def test_add_all_rejects_bad_shape(self):
        lsh = CosineLSH(dim=4)
        with pytest.raises(ValueError):
            lsh.add_all(RNG.standard_normal((3, 5)))
        with pytest.raises(ValueError):
            lsh.add_all(RNG.standard_normal(4))

    def test_inserted_vectors_are_copies(self):
        """Mutating the caller's array after insert must not corrupt the
        index (float64 inputs used to be stored as views)."""
        lsh = CosineLSH(dim=4, seed=0)
        matrix = np.ones((2, 4))
        lsh.add_all(matrix)
        single = np.ones(4)
        lsh.add(single)
        matrix[:] = -100.0
        single[:] = -100.0
        assert np.allclose(lsh.vectors(), 1.0)
        assert lsh.rank_many([set(lsh.live_ids())],
                             np.ones((1, 4)))[0][0][1] == pytest.approx(1.0)

    def test_vectors_accessor(self):
        lsh = CosineLSH(dim=3)
        assert lsh.vectors().shape == (0, 3)
        v = RNG.standard_normal(3)
        idx = lsh.add(v)
        assert np.allclose(lsh.vector(idx), v)
        assert lsh.vectors().shape == (1, 3)


class TestClustering:
    def test_centroid_ranking_prefers_members(self):
        cluster = RNG.standard_normal(6) * 0.1 + np.array([5, 0, 0, 0, 0, 0])
        members = np.stack([cluster + RNG.standard_normal(6) * 0.1 for _ in range(4)])
        outliers = RNG.standard_normal((4, 6)) + np.array([0, 5, 0, 0, 0, 0])
        vectors = np.vstack([members, outliers])
        centroid = topic_centroid(vectors, [0, 1])
        [ranked] = top_k(centroid[None, :], vectors, k=4)
        assert {i for i, _s in ranked} == {0, 1, 2, 3}

    def test_topic_centroid_requires_members(self):
        with pytest.raises(ValueError):
            topic_centroid(np.eye(3), [])
