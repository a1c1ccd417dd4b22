"""Multi-process ``encode_corpus``: equivalence with the serial path.

The contract is *same results as serial* — not merely close: the worker
scatter ships the exact batches the serial path builds and gathers them
back in order, so every pooled vector, every ``CellRef``, and every
``StoreStats`` counter must be bit-identical.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import TabBiNConfig, TabBiNEmbedder
from repro.datasets import load_dataset
from repro.index import default_workers
from repro.tables import Table


@pytest.fixture(scope="module")
def big_corpus():
    return load_dataset("cancerkg", n_tables=30, seed=1)


@pytest.fixture(scope="module")
def big_embedder(big_corpus):
    emb, _stats = TabBiNEmbedder.build(
        big_corpus, config=TabBiNConfig.tiny(), steps=0, vocab_size=300,
        seed=1,
    )
    return emb


def snapshot(store):
    """Deep copy of the cache + stats for cross-run comparison."""
    cache = {key: [(ref, vector.copy()) for ref, vector in entry]
             for key, entry in store._cache.items()}
    return cache, dataclasses.asdict(store.stats)


def assert_identical(a, b):
    cache_a, stats_a = a
    cache_b, stats_b = b
    assert stats_a == stats_b
    assert set(cache_a) == set(cache_b)
    for key in cache_a:
        entry_a, entry_b = cache_a[key], cache_b[key]
        assert len(entry_a) == len(entry_b)
        for (ref_a, vec_a), (ref_b, vec_b) in zip(entry_a, entry_b):
            assert ref_a == ref_b
            assert vec_a.dtype == vec_b.dtype
            assert (vec_a == vec_b).all()      # bit-identical, not allclose


class TestWorkersEquivalence:
    def test_workers2_bit_identical_on_30_tables(self, big_embedder,
                                                 big_corpus):
        assert len(big_corpus) == 30
        big_embedder.store.clear()
        encoded_serial = big_embedder.precompute(big_corpus, batch_size=8)
        serial = snapshot(big_embedder.store)
        big_embedder.store.clear()
        encoded_parallel = big_embedder.precompute(big_corpus, batch_size=8,
                                                   workers=2)
        parallel = snapshot(big_embedder.store)
        assert encoded_serial == encoded_parallel
        assert_identical(serial, parallel)

    def test_workers1_never_spawns_a_pool(self, big_embedder, big_corpus,
                                          monkeypatch):
        import repro.index.store as store_module

        def boom(*args, **kwargs):
            raise AssertionError("workers=1 must stay in-process")

        monkeypatch.setattr(store_module, "ProcessPoolExecutor", boom)
        big_embedder.store.clear()
        big_embedder.precompute(big_corpus[:2], workers=1)

    def test_embeddings_downstream_match(self, big_embedder, big_corpus):
        """End to end: composite table embeddings from a parallel encode
        equal the serial ones."""
        big_embedder.store.clear()
        big_embedder.precompute(big_corpus, workers=2)
        parallel = [big_embedder.table_embedding(t, variant="tblcomp1")
                    for t in big_corpus[:5]]
        big_embedder.store.clear()
        big_embedder.precompute(big_corpus)
        serial = [big_embedder.table_embedding(t, variant="tblcomp1")
                  for t in big_corpus[:5]]
        for a, b in zip(parallel, serial):
            assert (a == b).all()


class TestDegenerateCases:
    def test_empty_corpus(self, big_embedder):
        big_embedder.store.clear()
        assert big_embedder.store.encode_corpus([], workers=2) == 0
        assert len(big_embedder.store) == 0

    def test_single_table(self, big_embedder, big_corpus):
        big_embedder.store.clear()
        encoded = big_embedder.store.encode_corpus(big_corpus[:1], workers=2)
        assert encoded == 4                    # one table, four segments
        serial_entries = len(big_embedder.store)
        big_embedder.store.clear()
        big_embedder.store.encode_corpus(big_corpus[:1])
        assert len(big_embedder.store) == serial_entries

    def test_duplicate_fingerprints_encoded_once(self, big_embedder):
        big_embedder.store.clear()
        t1 = Table("dup", [["a", "b"]], [["1", "2"]])
        t2 = Table("dup", [["a", "b"]], [["1", "2"]])
        assert t1 is not t2
        encoded = big_embedder.store.encode_corpus([t1, t2] * 3,
                                                   segments=("row",),
                                                   workers=2)
        assert encoded == 1
        assert big_embedder.store.stats.tables_encoded == 1

    def test_already_cached_corpus_is_noop(self, big_embedder, big_corpus):
        big_embedder.store.clear()
        big_embedder.precompute(big_corpus[:3], workers=2)
        assert big_embedder.precompute(big_corpus[:3], workers=2) == 0

    def test_invalid_workers_rejected(self, big_embedder, big_corpus):
        with pytest.raises(ValueError):
            big_embedder.store.encode_corpus(big_corpus[:1], workers=0)
        with pytest.raises(ValueError):
            big_embedder.store.encode_corpus(big_corpus[:1], workers=-2)


def test_default_workers_is_positive():
    assert default_workers() >= 1
