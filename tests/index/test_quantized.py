"""Quantized int8 tier: exact-equivalence, recall, and lifecycle.

The tier's whole contract is *rankings never change*: the int8
shortlist is a prefilter in front of the existing exact einsum rerank,
so every quantized query must reproduce the unquantized ranking bit
for bit — across both layouts, mmap on/off, shard counts, duplicate-
vector tie-dense corpora, and k values straddling the brute-force
fallback boundary.  The property layer (hypothesis) drives exactly
that grid, beside the reference oracle's ``quantized``,
``quantized-mmap`` and ``served-quantized`` modes
(``tests/test_reference_oracle.py``).

The lifecycle layer pins the freshness invariant: an attached sidecar
is *always* consistent with the fp vectors — add/remove/compact/merge/
rebalance either extend it in lockstep or rebuild it, and ``save()``
writes it iff present, so stale int8 next to mutated fp vectors is
structurally impossible.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import IndexSpec, ShardedIndex, VectorIndex, open_index
from repro.retrieval import (
    MARGIN,
    OVERFETCH,
    approx_scores,
    quantize_rows,
    shortlist_size,
    tie_inclusive_cut,
)

DIM = 16


def tie_dense_corpus(n, dim=DIM, seed=0, dup_every=3):
    """Vectors where every ``dup_every``-th row repeats — byte-equal
    duplicates produce exact score ties, the hardest case for any
    shortlist cut."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(((n + dup_every - 1) // dup_every, dim))
    return np.repeat(base, dup_every, axis=0)[:n]


def rankings(index, queries, k):
    return [[(hit.key, hit.score) for hit in hits]
            for hits in index.query_many(queries, k=k)]


def assert_sidecar_fresh(index):
    """The attached sidecar equals a from-scratch requantization of the
    current fp vectors (the freshness invariant)."""
    shards = getattr(index, "shards", [index])
    for shard in shards:
        want = quantize_rows(shard.lsh.vectors())
        got = shard.lsh.quantized_arrays()
        for got_arr, want_arr in zip(got, want):
            assert np.array_equal(got_arr, want_arr)


class TestKernels:
    def test_shortlist_size(self):
        assert shortlist_size(10) == max(10 * OVERFETCH, 10 + MARGIN)
        assert shortlist_size(100) == 100 * OVERFETCH
        assert shortlist_size(1) == 1 + MARGIN

    @pytest.mark.parametrize("kwargs", [{"k": 0}, {"k": -1}])
    def test_shortlist_size_validates(self, kwargs):
        with pytest.raises(ValueError):
            shortlist_size(**kwargs)

    def test_quantize_rows_shapes_and_dtypes(self):
        matrix = np.random.default_rng(0).standard_normal((7, DIM))
        q8, scales, norms = quantize_rows(matrix)
        assert q8.shape == matrix.shape and q8.dtype == np.int8
        assert scales.shape == (7,) and scales.dtype == np.float32
        assert norms.shape == (7,) and norms.dtype == np.float32
        # Symmetric quantization saturates at ±127 and reconstructs
        # each component to within half a quantization step.
        assert np.abs(q8).max() <= 127
        err = np.abs(matrix - q8.astype(float) * scales[:, None].astype(float))
        assert (err <= scales[:, None] / 2 + 1e-12).all()

    def test_sidecar_resident_bytes_at_most_035x_of_fp64(self):
        """The tier's memory promise: q8 + scales + norms — the working
        set the shortlist scores — are at most 0.35x of the fp64 matrix
        (1/8 + 1/dim for int8 rows plus two float32 per row)."""
        vectors = tie_dense_corpus(300)
        index = VectorIndex(dim=DIM, seed=0)
        index.add_batch([f"k{i}" for i in range(300)], vectors)
        index.quantize()
        sidecar = sum(array.nbytes
                      for array in index.lsh.quantized_arrays())
        assert vectors.dtype == np.float64
        assert sidecar <= 0.35 * vectors.nbytes

    def test_duplicate_rows_quantize_identically(self):
        """Byte-equal fp rows must get byte-equal int8 rows whether
        quantized together or separately — duplicate ties depend on it."""
        row = np.random.default_rng(1).standard_normal(DIM)
        bulk_q8, bulk_scales, _ = quantize_rows(np.stack([row, row, row]))
        solo_q8, solo_scales, _ = quantize_rows(row[None, :])
        assert np.array_equal(bulk_q8[0], bulk_q8[2])
        assert np.array_equal(bulk_q8[0], solo_q8[0])
        assert bulk_scales[0] == solo_scales[0]

    def test_zero_row_quantizes_to_zeros(self):
        q8, scales, norms = quantize_rows(np.zeros((1, DIM)))
        assert not q8.any() and scales[0] == 0.0 and norms[0] == 0.0

    def test_quantize_rows_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            quantize_rows(np.zeros(DIM))

    def test_approx_scores_zero_norm_scores_zero(self):
        corpus = np.vstack([np.zeros(DIM),
                            np.ones(DIM)])
        q8, scales, norms = quantize_rows(corpus)
        queries_q8, _, _ = quantize_rows(np.ones((1, DIM)))
        scores = approx_scores(q8, scales, norms, queries_q8)
        assert scores.shape == (2, 1)
        assert scores[0, 0] == 0.0
        assert scores[1, 0] > 0.0

    def test_approx_scores_order_matches_cosine_on_clean_data(self):
        """On well-separated vectors the int8 ordering matches cosine —
        the shortlist would keep any top-k even at overfetch 1."""
        rng = np.random.default_rng(2)
        corpus = rng.standard_normal((50, DIM))
        query = rng.standard_normal(DIM)
        q8, scales, norms = quantize_rows(corpus)
        queries_q8, _, _ = quantize_rows(query[None, :])
        approx = approx_scores(q8, scales, norms, queries_q8)[:, 0]
        exact = corpus @ query / np.linalg.norm(corpus, axis=1)
        # Spearman-style check: the top-5 sets agree.
        assert set(np.argsort(-approx)[:5]) == set(np.argsort(-exact)[:5])

    def test_tie_inclusive_cut_keeps_all_tied_candidates(self):
        scores = np.array([3.0, 1.0, 2.0, 2.0, 2.0, 0.5], dtype=np.float32)
        keep = tie_inclusive_cut(scores, 2)
        # m=2 lands on the 2.0 tie: every 2.0 stays in.
        assert keep.tolist() == [True, False, True, True, True, False]
        assert tie_inclusive_cut(scores, 10).all()
        with pytest.raises(ValueError):
            tie_inclusive_cut(scores, 0)


class TestEquivalence:
    def test_quantize_alone_changes_nothing(self):
        vectors = tie_dense_corpus(60)
        keys = [f"k{i}" for i in range(60)]
        plain = VectorIndex(dim=DIM, seed=0)
        plain.add_batch(keys, vectors)
        quant = VectorIndex(dim=DIM, seed=0)
        quant.add_batch(keys, vectors)
        quant.quantize()        # sidecar attached but scoring not enabled
        queries = np.vstack([vectors[:3],
                             np.random.default_rng(9).standard_normal(
                                 (3, DIM))])
        assert rankings(quant, queries, 8) == rankings(plain, queries, 8)
        assert not quant.use_quantized

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_quantized_rankings_bit_identical(self, tmp_path_factory, data):
        """The tentpole property: shards {1,2,5} × mmap on/off ×
        tie-dense corpora × k across the brute-force-fallback boundary
        — quantized rankings == unquantized, keys and scores both."""
        seed = data.draw(st.integers(0, 2**16), label="seed")
        n = data.draw(st.integers(4, 48), label="n")
        dup_every = data.draw(st.sampled_from([1, 2, 3]), label="dup_every")
        n_shards = data.draw(st.sampled_from([1, 2, 5]), label="shards")
        # MARGIN keeps the shortlist a superset of every candidate pool
        # at the k values queried below (k >= total-1, so k + 32 >
        # total): in that regime equivalence is a hard guarantee, not a
        # statistical one, and hypothesis can't manufacture a near-tie
        # that slips past a zero-slack cut.  Shortlists that actually
        # prune are watched by the recall monitor below.
        vectors = tie_dense_corpus(n, seed=seed, dup_every=dup_every)
        keys = [f"k{i:04d}" for i in range(n)]

        plain = ShardedIndex.create(
            IndexSpec(kind="vector", dim=DIM, seed=0), n_shards)
        plain.add_batch(keys, vectors)
        quant = ShardedIndex.create(
            IndexSpec(kind="vector", dim=DIM, seed=0), n_shards)
        quant.add_batch(keys, vectors)
        quant.quantize()
        quant.enable_quantized()

        rng = np.random.default_rng(seed + 1)
        queries = np.vstack([vectors[:2], rng.standard_normal((2, DIM))])
        total = len(plain)
        # k across the global fallback boundary — the shortlist must
        # not perturb the candidate counts that decision reads.
        for k in (max(1, total - 1), total, total + 1):
            assert rankings(quant, queries, k) == rankings(plain, queries, k)

        # Persistence: the int8 members round-trip and the reopened
        # index (both mmap modes) still matches exactly.
        tmp_path = tmp_path_factory.mktemp("quant")
        path = quant.save(tmp_path / "layout")
        for mmap in (False, True):
            reopened = open_index(path, mmap=mmap, quantized=True)
            reopened.enable_quantized()
            assert rankings(reopened, queries, max(1, total - 1)) == \
                rankings(plain, queries, max(1, total - 1))

    def test_pruning_shortlist_keeps_rankings(self, monkeypatch):
        """Coarse blocking (two planes a band) gives candidate pools
        far past ``shortlist_size(k)``, so the int8 cut really drops
        candidates before the exact rerank — and the rankings, through
        ``query_many``, still equal the unquantized ones."""
        from repro.retrieval import CosineLSH

        n, k = 600, 5
        vectors = tie_dense_corpus(n, seed=11)
        keys = [f"k{i:04d}" for i in range(n)]
        plain = VectorIndex(dim=DIM, n_planes=2, n_bands=2, seed=0)
        plain.add_batch(keys, vectors)
        quant = VectorIndex(dim=DIM, n_planes=2, n_bands=2, seed=0)
        quant.add_batch(keys, vectors)
        quant.quantize()
        quant.enable_quantized()

        pools = []
        shortlist_many = CosineLSH._shortlist_many

        def recording(self, ids_per_query, matrix, m):
            kept = shortlist_many(self, ids_per_query, matrix, m)
            pools.extend((len(before), len(after))
                         for before, after in zip(ids_per_query, kept))
            return kept

        monkeypatch.setattr(CosineLSH, "_shortlist_many", recording)
        rng = np.random.default_rng(12)
        queries = np.vstack([vectors[:4], rng.standard_normal((12, DIM))])
        assert rankings(quant, queries, k) == rankings(plain, queries, k)
        assert len(pools) == len(queries)
        assert all(before > shortlist_size(k) for before, _after in pools)
        assert all(after < before for before, after in pools)

    def test_recall_at_shortlist_never_misses_topk(self):
        """Monitor: at ``k * OVERFETCH``, the tie-inclusive int8
        shortlist contains every true top-k candidate (no margin, so
        the overfetch factor itself is what's being measured)."""
        rng = np.random.default_rng(7)
        corpus = tie_dense_corpus(240, seed=7)
        q8, scales, norms = quantize_rows(corpus)
        queries = rng.standard_normal((20, DIM))
        exact = (corpus @ queries.T
                 / np.linalg.norm(corpus, axis=1)[:, None])
        queries_q8, _, _ = quantize_rows(queries)
        approx = approx_scores(q8, scales, norms, queries_q8)
        k = 10
        m = k * OVERFETCH
        misses = 0
        for q in range(queries.shape[0]):
            keep = tie_inclusive_cut(approx[:, q], m)
            true_topk = np.argsort(-exact[:, q], kind="stable")[:k]
            misses += int(not keep[true_topk].all())
        assert misses == 0, (f"shortlist missed a true top-{k} candidate "
                             f"in {misses}/{queries.shape[0]} queries at "
                             f"overfetch={OVERFETCH}")


class TestEnableSurface:
    def test_enable_without_sidecar_names_the_retrofit(self):
        index = VectorIndex(dim=DIM, seed=0)
        with pytest.raises(ValueError, match="quantize"):
            index.enable_quantized()

    def test_sharded_enable_rejects_partial_quantization(self):
        sharded = ShardedIndex.create(
            IndexSpec(kind="vector", dim=DIM, seed=0), 3)
        vectors = tie_dense_corpus(12)
        sharded.add_batch([f"k{i}" for i in range(12)], vectors)
        sharded.shards[1].quantize()
        with pytest.raises(ValueError):
            sharded.enable_quantized()
        sharded.quantize()
        sharded.enable_quantized()
        assert sharded.use_quantized

    def test_open_index_quantized_flag(self, tmp_path):
        index = VectorIndex(dim=DIM, seed=0)
        index.add_batch(["a", "b"], tie_dense_corpus(2))
        plain_path = index.save(tmp_path / "plain.npz")
        with pytest.raises(ValueError, match="quantize"):
            open_index(plain_path, quantized=True)
        index.quantize()
        quant_path = index.save(tmp_path / "quant.npz")
        opened = open_index(quant_path, quantized=True)
        assert opened.quantized and opened.use_quantized
        # Unquantized open of a quantized file ignores the sidecar
        # scoring-wise but still loads it (zero-cost under mmap).
        assert not open_index(quant_path).use_quantized


class TestLifecycleFreshness:
    def _build(self, n=30, n_shards=None, seed=0):
        vectors = tie_dense_corpus(n, seed=seed)
        keys = [f"k{i:04d}" for i in range(n)]
        if n_shards is None:
            index = VectorIndex(dim=DIM, seed=0)
        else:
            index = ShardedIndex.create(
                IndexSpec(kind="vector", dim=DIM, seed=0), n_shards)
        index.add_batch(keys, vectors)
        return index, keys, vectors

    def test_add_after_quantize_extends_sidecar(self):
        index, _keys, _vectors = self._build()
        index.quantize()
        index.add("fresh", np.random.default_rng(4).standard_normal(DIM))
        assert_sidecar_fresh(index)

    def test_remove_and_compact_keep_sidecar_fresh(self):
        index, keys, _vectors = self._build()
        index.quantize()
        index.enable_quantized()
        index.remove(keys[0])
        index.remove(keys[7])
        assert_sidecar_fresh(index)
        index.compact()
        assert_sidecar_fresh(index)
        assert index.quantized and index.use_quantized

    def test_merge_into_quantized_extends_sidecar(self):
        index, _keys, _vectors = self._build()
        index.quantize()
        other, _ok, _ov = self._build(n=10, seed=99)
        index.merge(other)
        assert_sidecar_fresh(index)

    def test_rebalance_carries_quantization(self):
        sharded, _keys, vectors = self._build(n=40, n_shards=2)
        sharded.quantize()
        sharded.enable_quantized()
        plain, _k2, _v2 = self._build(n=40, n_shards=2)
        queries = vectors[:4]
        want = rankings(plain, queries, 6)
        sharded.rebalance(5)
        assert sharded.quantized and sharded.use_quantized
        assert_sidecar_fresh(sharded)
        assert rankings(sharded, queries, 6) == want

    def test_unquantized_lifecycle_stays_unquantized(self):
        sharded, keys, _vectors = self._build(n=20, n_shards=2)
        sharded.remove(keys[0])
        sharded.compact()
        sharded.rebalance(3)
        assert not sharded.quantized

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_random_lifecycle_never_saves_stale_sidecar(
            self, tmp_path_factory, data):
        """Property: quantize, then a random op sequence, then save —
        the on-disk sidecar always equals a requantization of the
        on-disk fp vectors, and the reopened index matches the ranking
        of an unquantized twin rebuilt from the same surviving rows."""
        tmp_path = tmp_path_factory.mktemp("life")
        seed = data.draw(st.integers(0, 2**16))
        n = data.draw(st.integers(6, 30))
        n_shards = data.draw(st.sampled_from([1, 3]))
        index, keys, _vectors = self._build(n=n, n_shards=n_shards,
                                            seed=seed)
        index.quantize()
        index.enable_quantized()
        live = list(keys)
        fresh = itertools.count()
        rng = np.random.default_rng(seed)
        for op in data.draw(st.lists(
                st.sampled_from(["remove", "add", "compact", "rebalance"]),
                max_size=5)):
            if op == "remove" and len(live) > 1:
                victim = live.pop(data.draw(
                    st.integers(0, len(live) - 1)))
                index.remove(victim)
            elif op == "add":
                key = f"new{next(fresh):04d}"
                index.add(key, rng.standard_normal(DIM))
                live.append(key)
            elif op == "compact":
                index.compact()
            elif op == "rebalance" and n_shards > 1:
                index.rebalance(data.draw(st.sampled_from([2, 4])))
        assert_sidecar_fresh(index)
        name = "layout" if n_shards > 1 else "one.npz"
        path = index.save(tmp_path / name)
        reopened = open_index(path, quantized=True)
        assert_sidecar_fresh(reopened)

        twin = VectorIndex(dim=DIM, seed=0)
        for key in live:
            twin.add(key, index.vector(key), {})
        queries = rng.standard_normal((3, DIM))
        k = min(len(live), 5)
        assert rankings(reopened, queries, k) == rankings(twin, queries, k)


class TestForeignWriters:
    def test_mismatched_sidecar_is_ignored_not_trusted(self, tmp_path):
        """A q8 member whose shape/dtype disagrees with the vectors
        (foreign writer / hand edit) loads as an unquantized index."""
        index = VectorIndex(dim=DIM, seed=0)
        index.add_batch([f"k{i}" for i in range(8)], tie_dense_corpus(8))
        index.quantize()
        path = index.save(tmp_path / "ok.npz")
        with np.load(path) as archive:
            members = {name: archive[name] for name in archive.files}
        members["q8"] = members["q8"][:4]            # wrong row count
        np.savez(tmp_path / "bad.npz", **members)
        loaded = open_index(tmp_path / "bad.npz")
        assert not loaded.quantized
        with pytest.raises(ValueError, match="quantize"):
            open_index(tmp_path / "bad.npz", quantized=True)

    def test_old_reader_shape_payload_untouched(self, tmp_path):
        """Quantization is signalled purely via additive array members;
        the JSON payload old readers parse is byte-compatible."""
        import json

        from repro.index.index import _PAYLOAD_KEY

        index = VectorIndex(dim=DIM, seed=0)
        index.add_batch(["a", "b", "c"], tie_dense_corpus(3))
        index.quantize()
        path = index.save(tmp_path / "q.npz")
        with np.load(path) as archive:
            assert {"q8", "q_scales", "q_norms"} <= set(archive.files)
            payload = json.loads(bytes(archive[_PAYLOAD_KEY]).decode())
        assert set(payload) == {"format_version", "params", "keys", "meta",
                                "tombstones"}
