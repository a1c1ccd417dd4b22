"""TableIndex / ColumnIndex: build, query, save/load round-trip."""

import numpy as np
import pytest

from repro.index import (
    ColumnIndex,
    TableIndex,
    VectorIndex,
    open_index,
    table_fingerprint,
)

RNG = np.random.default_rng(3)


class TestVectorIndex:
    def test_add_and_query(self):
        index = VectorIndex(dim=8)
        vectors = RNG.standard_normal((6, 8))
        index.add_batch([f"k{i}" for i in range(6)], vectors)
        hits = index.query_vector(vectors[2], k=3)
        assert hits[0].key == "k2"
        assert hits[0].score == pytest.approx(1.0)

    def test_duplicate_keys_are_noops(self):
        index = VectorIndex(dim=4)
        v = RNG.standard_normal(4)
        assert index.add("a", v) == index.add("a", RNG.standard_normal(4))
        assert len(index) == 1

    def test_add_batch_dedupes_within_batch(self):
        """Equal-content tables in one build() share a fingerprint; the
        duplicate must not be inserted twice (a second copy would dodge
        self-exclusion and echo the query table back)."""
        index = VectorIndex(dim=4)
        vectors = RNG.standard_normal((3, 4))
        ids = index.add_batch(["a", "b", "a"], vectors)
        assert len(index) == 2
        assert ids[0] == ids[2]
        hits = index.query_vector(vectors[0], k=2, exclude="a")
        assert "a" not in {h.key for h in hits}

    def test_exclude_key(self):
        index = VectorIndex(dim=4)
        vectors = RNG.standard_normal((5, 4))
        index.add_batch([f"k{i}" for i in range(5)], vectors)
        hits = index.query_vector(vectors[0], k=4, exclude="k0")
        assert "k0" not in {h.key for h in hits}
        assert len(hits) == 4

    def test_query_k_below_one_rejected(self):
        index = VectorIndex(dim=4)
        index.add("a", RNG.standard_normal(4))
        for bad_k in (0, -1):
            with pytest.raises(ValueError, match="at least 1"):
                index.query_vector(RNG.standard_normal(4), k=bad_k)

    @pytest.mark.parametrize("layout", ["lsh", "single", "sharded"])
    @pytest.mark.parametrize("shape", [(5,), (2, 4)])
    def test_single_query_rejects_a_wrong_shape_by_name(self, layout, shape):
        """A wrong-dimension or 2-D vector must be refused with the
        expected dimension in the message, not with einsum's broadcast
        error from deep inside the kernel."""
        from repro.index import IndexSpec, ShardedIndex
        from repro.retrieval import CosineLSH

        vectors = RNG.standard_normal((6, 4))
        if layout == "lsh":
            index = CosineLSH(dim=4)
            index.add_all(vectors)

            def query(vector, k):   # the hash stage of a one-row query
                return index.candidates_many(np.asarray(vector)[None, :])
        else:
            index = (VectorIndex(dim=4) if layout == "single" else
                     ShardedIndex.create(IndexSpec(kind="vector", dim=4), 2))
            index.add_batch([f"k{i}" for i in range(6)], vectors)
            query = index.query_vector
        with pytest.raises(ValueError, match=r"expected \(Q, 4\)"):
            query(np.ones(shape), k=2)

    def test_save_load_appends_npz_to_foreign_suffix(self, tmp_path):
        """Regression: save("foo.idx") writes foo.idx.npz, and
        load("foo.idx") must find it (with_suffix would look for the
        never-written foo.npz instead)."""
        index = VectorIndex(dim=4)
        index.add("a", RNG.standard_normal(4))
        written = index.save(tmp_path / "foo.idx")
        assert written == tmp_path / "foo.idx.npz"
        assert open_index(tmp_path / "foo.idx").keys == index.keys

    def test_contains_and_vector(self):
        index = VectorIndex(dim=4)
        v = RNG.standard_normal(4)
        index.add("a", v)
        assert "a" in index and "b" not in index
        assert np.allclose(index.vector("a"), v)

    def test_save_load_round_trip(self, tmp_path):
        index = VectorIndex(dim=8, n_planes=6, n_bands=3, seed=7)
        vectors = RNG.standard_normal((10, 8))
        index.add_batch([f"k{i}" for i in range(10)], vectors,
                        [{"n": i} for i in range(10)])
        path = index.save(tmp_path / "idx.npz")
        loaded = open_index(path)
        assert type(loaded) is VectorIndex
        assert loaded.keys == index.keys and loaded.meta == index.meta
        query = RNG.standard_normal(8)
        assert ([(h.key, round(h.score, 12)) for h in index.query_vector(query, 5)]
                == [(h.key, round(h.score, 12)) for h in loaded.query_vector(query, 5)])

    def test_empty_index_round_trips(self, tmp_path):
        path = VectorIndex(dim=5).save(tmp_path / "empty.npz")
        assert len(open_index(path)) == 0

    def test_corpus_provenance_round_trips(self, tmp_path):
        index = VectorIndex(dim=4)
        index.add("a", RNG.standard_normal(4))
        index.corpus = {"dataset": "cancerkg", "n_tables": 6, "seed": 0}
        loaded = open_index(index.save(tmp_path / "idx.npz"))
        assert loaded.corpus == index.corpus


@pytest.mark.parametrize("n_shards", [1, 3])
class TestNonFiniteVectors:
    """A NaN or inf row is refused with its row number, by inserts
    (leaving the index as it was) and by queries alike."""

    def _index(self, n_shards):
        from repro.index import IndexSpec, ShardedIndex

        index = (VectorIndex(dim=4) if n_shards == 1 else
                 ShardedIndex.create(IndexSpec(kind="vector", dim=4),
                                     n_shards))
        self.vectors = np.random.default_rng(5).standard_normal((5, 4))
        index.add_batch([f"k{i}" for i in range(5)], self.vectors)
        return index

    def _state(self, index):
        return (len(index), index.generation, index.n_tombstones,
                [(hit.key, hit.score)
                 for hit in index.query_vector(self.vectors[0], k=5)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_add_batch_refuses_and_changes_nothing(self, n_shards, bad):
        index = self._index(n_shards)
        before = self._state(index)
        rows = np.random.default_rng(6).standard_normal((4, 4))
        rows[2, 1] = bad
        rows[3, 0] = bad
        with pytest.raises(ValueError, match="vector row 2 is not finite"):
            index.add_batch([f"new{i}" for i in range(4)], rows)
        assert self._state(index) == before
        assert not any(f"new{i}" in index for i in range(4))

    def test_add_refuses_and_changes_nothing(self, n_shards):
        index = self._index(n_shards)
        before = self._state(index)
        with pytest.raises(ValueError, match="vector row 0 is not finite"):
            index.add("new", np.array([0.0, np.nan, 1.0, 1.0]))
        assert self._state(index) == before and "new" not in index

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_query_many_refuses(self, n_shards, bad):
        index = self._index(n_shards)
        queries = self.vectors[:3].copy()
        queries[1, 3] = bad
        with pytest.raises(ValueError, match="query row 1 is not finite"):
            index.query_many(queries, k=3)
        with pytest.raises(ValueError, match="query row 0 is not finite"):
            index.query_vector(queries[1], k=3)


class TestEmptyCorpus:
    def test_table_index_rejects_empty_corpus(self, embedder):
        with pytest.raises(ValueError):
            TableIndex.build(embedder, [])

    def test_column_index_rejects_empty_corpus(self, embedder):
        with pytest.raises(ValueError):
            ColumnIndex.build(embedder, [])


class TestTableIndex:
    def test_build_indexes_whole_corpus(self, embedder, corpus):
        index = TableIndex.build(embedder, corpus)
        assert len(index) == len(corpus)
        assert index.dim == 3 * embedder.hidden     # tblcomp1
        assert all("caption" in m for m in index.meta)

    def test_query_table_excludes_self_but_keeps_k(self, embedder, corpus):
        index = TableIndex.build(embedder, corpus)
        k = len(corpus) - 1
        hits = index.query_table(embedder, corpus[0], k=k)
        assert len(hits) == k                       # self-exclusion can't shrink
        assert table_fingerprint(corpus[0]) not in {h.key for h in hits}

    def test_self_match_without_exclusion(self, embedder, corpus):
        index = TableIndex.build(embedder, corpus)
        hits = index.query_table(embedder, corpus[0], k=1, exclude_self=False)
        assert hits[0].key == table_fingerprint(corpus[0])

    def test_round_trip_preserves_results(self, embedder, corpus, tmp_path):
        index = TableIndex.build(embedder, corpus, variant="row")
        path = index.save(tmp_path / "tables.npz")
        loaded = TableIndex.load(path)
        assert isinstance(loaded, TableIndex)
        assert loaded.spec.extra["variant"] == "row"
        before = index.query_table(embedder, corpus[1], k=3)
        after = loaded.query_table(embedder, corpus[1], k=3)
        assert [(h.key, round(h.score, 12)) for h in before] == \
               [(h.key, round(h.score, 12)) for h in after]

    def test_kind_mismatch_rejected(self, embedder, corpus, tmp_path):
        path = TableIndex.build(embedder, corpus).save(tmp_path / "t.npz")
        with pytest.raises(ValueError):
            ColumnIndex.load(path)


class TestColumnIndex:
    def test_build_indexes_every_column(self, embedder, corpus):
        index = ColumnIndex.build(embedder, corpus)
        assert len(index) == sum(t.n_cols for t in corpus)
        assert index.dim == 2 * embedder.hidden     # colcomp

    def test_query_column_round_trip(self, embedder, corpus, tmp_path):
        index = ColumnIndex.build(embedder, corpus)
        path = index.save(tmp_path / "cols.npz")
        loaded = open_index(path)
        assert isinstance(loaded, ColumnIndex) and loaded.spec.extra["composite"]
        before = index.query_column(embedder, corpus[0], 0, k=4)
        after = loaded.query_column(embedder, corpus[0], 0, k=4)
        assert [h.key for h in before] == [h.key for h in after]
        assert ColumnIndex.column_key(corpus[0], 0) not in {h.key for h in before}

    def test_meta_carries_labels(self, embedder, corpus):
        index = ColumnIndex.build(embedder, corpus)
        assert all({"caption", "col", "label", "concept"} <= set(m)
                   for m in index.meta)
