"""EmbeddingStore tests: cache-key regression, batching equivalence."""

import gc

import numpy as np
import pytest

from repro.index import EmbeddingStore, table_fingerprint
from repro.index.store import _bucketed_batches
from repro.tables import Table


def simple(caption="t", cell="x"):
    return Table(caption, [["a", "b"]], [[cell, "2"]])


class TestCacheKeyRegression:
    """The seed cached pooled vectors under ``id(table)`` — these pin the
    content-addressed replacement."""

    def test_cache_keys_are_content_hashes_not_ids(self, embedder):
        embedder.store.clear()
        table = simple()
        embedder._pooled(table, "row")
        keys = list(embedder.store._cache)
        assert keys, "pooling should populate the cache"
        for fp, segment in keys:
            assert isinstance(fp, str)          # a digest, never id(table)
            assert fp == table_fingerprint(table)

    def test_equal_content_tables_share_cache_entry(self, embedder):
        embedder.store.clear()
        t1, t2 = simple(), simple()
        assert t1 is not t2
        first = embedder.column_data_embedding(t1, 0)
        before = len(embedder.store)
        hits_before = embedder.store.stats.hits
        second = embedder.column_data_embedding(t2, 0)
        assert len(embedder.store) == before        # no new entry
        assert embedder.store.stats.hits > hits_before
        assert np.allclose(first, second)

    def test_gc_reused_id_cannot_return_stale_vectors(self, embedder):
        """A table allocated at a GC'd table's address (CPython reuses
        ids) must never see the dead table's vectors."""
        embedder.store.clear()
        stale = simple(cell="stale")
        stale_id = id(stale)
        stale_vec = embedder.column_data_embedding(stale, 0).copy()
        del stale
        gc.collect()
        for attempt in range(64):
            fresh = simple(cell=f"fresh-{attempt}")
            vec = embedder.column_data_embedding(fresh, 0)
            if id(fresh) == stale_id:
                # Same id as the dead table: with the id-keyed cache this
                # returned stale_vec verbatim.
                assert not np.allclose(vec, stale_vec)
                break
            del fresh
            gc.collect()

    def test_cache_survives_object_lifecycle(self, embedder):
        """Re-creating an equal table after GC is a cache *hit* — the
        property an id-keyed cache could never provide."""
        embedder.store.clear()
        t = simple(cell="lifecycle")
        first = embedder.column_data_embedding(t, 0).copy()
        del t
        gc.collect()
        misses = embedder.store.stats.misses
        again = embedder.column_data_embedding(simple(cell="lifecycle"), 0)
        assert embedder.store.stats.misses == misses    # pure hit
        assert np.allclose(first, again)


class TestBatchedEncoding:
    def test_batched_matches_lazy_per_table(self, embedder, corpus):
        embedder.store.clear()
        lazy = [embedder.table_embedding(t, variant="tblcomp1") for t in corpus]
        for batch_size in (1, 4, 32):
            embedder.store.clear()
            embedder.precompute(corpus, batch_size=batch_size)
            batched = [embedder.table_embedding(t, variant="tblcomp1")
                       for t in corpus]
            for a, b in zip(lazy, batched):
                assert np.allclose(a, b), f"batch_size={batch_size} diverged"

    def test_precompute_counts_entries(self, embedder, corpus):
        embedder.store.clear()
        encoded = embedder.precompute(corpus)
        assert encoded == 4 * len(corpus)       # four segments per table
        assert embedder.precompute(corpus) == 0  # all cached now

    def test_duplicate_tables_encoded_once(self, embedder):
        embedder.store.clear()
        t1, t2 = simple(), simple()
        encoded = embedder.store.encode_corpus([t1, t2], segments=("row",))
        assert encoded == 1

    def test_pooled_refs_match_lazy_path(self, embedder, corpus):
        """Batched scatter preserves (CellRef, vector) pairs exactly."""
        table = corpus[0]
        embedder.store.clear()
        lazy = embedder._pooled(table, "column")
        embedder.store.clear()
        embedder.precompute(corpus, batch_size=3)
        batched = embedder._pooled(table, "column")
        assert [r for r, _v in lazy] == [r for r, _v in batched]
        for (_r1, v1), (_r2, v2) in zip(lazy, batched):
            assert np.allclose(v1, v2)

    def test_rejects_bad_batch_size(self, embedder, corpus):
        with pytest.raises(ValueError):
            embedder.store.encode_corpus(corpus, batch_size=0)
        with pytest.raises(ValueError):
            EmbeddingStore(embedder.serializer, embedder.models, batch_size=-1)

    def test_rejects_unknown_segment(self, embedder, corpus):
        with pytest.raises(ValueError):
            embedder.store.encode_corpus(corpus, segments=("bogus",))


class TestBucketing:
    def test_batches_respect_size_and_buckets(self):
        lengths = [10, 12, 14, 100, 104, 30, 31]
        order = sorted(range(len(lengths)), key=lengths.__getitem__)
        batches = _bucketed_batches(lengths, order, size=2)
        assert [i for batch in batches for i in batch] == order
        for batch in batches:
            assert len(batch) <= 2
            buckets = {(lengths[i] + 15) // 16 for i in batch}
            assert len(buckets) == 1

    def test_long_sequences_batch_narrow(self):
        lengths = [256] * 8                     # 2 * 256**2 > area budget
        batches = _bucketed_batches(lengths, list(range(8)), size=8)
        assert all(len(b) == 1 for b in batches)
