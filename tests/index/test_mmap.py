"""Memory-mapped index loading: bit-identical, read-only, legacy-safe.

``open_index(..., mmap=True)`` must be a pure performance mode: same
buckets, same rankings (bit-equal scores), same lifecycle behaviour as
an eager load, on both layouts and on legacy v1/v2 files that predate
the saved band keys.  The mapped arrays are write-protected, so these
tests also pin the "flag a writeback attempt" contract: nothing in the
query or lifecycle paths mutates a loaded matrix, and a deliberate
write raises instead of corrupting the file.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import (
    ColumnIndex,
    IndexSpec,
    ShardedIndex,
    TableIndex,
    VectorIndex,
    open_index,
)
from repro.index.index import _PAYLOAD_KEY

FIXTURES = Path(__file__).parent / "fixtures"


def _make_index(n=120, dim=16, seed=0, dup_every=3):
    """Raw index with duplicate vectors (dense ties) and tombstones."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(((n + dup_every - 1) // dup_every, dim))
    vectors = np.repeat(base, dup_every, axis=0)[:n]
    keys = [f"k{i:05d}" for i in range(n)]
    index = VectorIndex(dim=dim, seed=seed)
    index.add_batch(keys, vectors)
    index.remove(keys[3])
    index.remove(keys[n // 2])
    return index, keys, vectors


def _rankings(index, queries, k=6, excludes=None):
    return [[(hit.key, hit.score) for hit in hits]
            for hits in index.query_many(queries, k=k, excludes=excludes)]


class TestSingleFileEquivalence:
    def test_mmap_matches_eager_bit_for_bit(self, tmp_path):
        index, _keys, vectors = _make_index()
        path = index.save(tmp_path / "one.npz")
        eager = open_index(path)
        mapped = open_index(path, mmap=True)
        rng = np.random.default_rng(1)
        queries = np.vstack([vectors[:5], rng.standard_normal((5, 16))])
        assert _rankings(mapped, queries) == _rankings(eager, queries)
        assert _rankings(mapped, queries, k=500) == \
            _rankings(eager, queries, k=500)   # brute-force fallback path

    def test_mmap_buckets_equal_fresh_build(self, tmp_path):
        """The band keys persisted by save() rebuild exactly the
        buckets a from-scratch hash would."""
        index, _keys, _vectors = _make_index()
        path = index.save(tmp_path / "one.npz")
        mapped = open_index(path, mmap=True)
        assert mapped.lsh._tables == index.lsh._tables
        assert np.array_equal(mapped.lsh.band_keys_matrix(),
                              index.lsh.band_keys_matrix())
        assert sorted(mapped.lsh.removed) == sorted(index.lsh.removed)

    def test_vectors_are_memory_mapped_and_readonly(self, tmp_path):
        index, keys, _vectors = _make_index()
        path = index.save(tmp_path / "one.npz")
        mapped = open_index(path, mmap=True)
        row = mapped.vector(keys[0])
        # The row must be a view into the file mapping — walk the .base
        # chain down to the np.memmap (a copy would have a short chain
        # of plain ndarrays, or none).
        base = row
        while base is not None and not isinstance(base, np.memmap):
            base = base.base
        assert isinstance(base, np.memmap)
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 123.0

    def test_query_and_lifecycle_never_write_back(self, tmp_path):
        """Run every read/lifecycle path over a write-protected mapping;
        a single writeback would raise, and the file must stay
        byte-identical throughout."""
        index, keys, vectors = _make_index()
        path = index.save(tmp_path / "one.npz")
        before = path.read_bytes()
        mapped = open_index(path, mmap=True)
        mapped.query_vector(vectors[7], k=4)
        mapped.query_many(vectors[:6], k=3)
        mapped.query_brute_many(vectors[9:10], k=4)
        mapped.remove(keys[10])
        assert mapped.compact() == 3          # 2 saved tombstones + 1
        mapped.query_vector(vectors[7], k=4)
        assert path.read_bytes() == before

    def test_saving_a_mapped_index_roundtrips(self, tmp_path):
        index, _keys, vectors = _make_index()
        path = index.save(tmp_path / "one.npz")
        mapped = open_index(path, mmap=True)
        resaved = open_index(mapped.save(tmp_path / "two.npz"))
        queries = vectors[:8]
        assert _rankings(resaved, queries) == _rankings(index, queries)


class TestShardedEquivalence:
    @pytest.mark.parametrize("n_shards", [2, 5])
    def test_mmap_matches_eager_on_sharded_layout(self, tmp_path, n_shards):
        _index, keys, vectors = _make_index()
        sharded = ShardedIndex.create(
            IndexSpec(kind="vector", dim=16, seed=0), n_shards)
        sharded.add_batch(keys, vectors)
        path = sharded.save(tmp_path / "sharded")
        eager = open_index(path)
        mapped = open_index(path, mmap=True)
        rng = np.random.default_rng(2)
        queries = np.vstack([vectors[:5], rng.standard_normal((5, 16))])
        assert _rankings(mapped, queries) == _rankings(eager, queries)
        for shard in mapped.shards:
            if len(shard):
                assert not shard.lsh.vector(0).flags.writeable

    def test_lifecycle_on_mapped_sharded_layout(self, tmp_path):
        _index, keys, vectors = _make_index()
        sharded = ShardedIndex.create(
            IndexSpec(kind="vector", dim=16, seed=0), 3)
        sharded.add_batch(keys, vectors)
        path = sharded.save(tmp_path / "sharded")
        mapped = open_index(path, mmap=True)
        mapped.remove(keys[0])
        mapped.compact()
        mapped.rebalance(4)
        assert len(mapped) == len(keys) - 1
        # Saving the post-lifecycle state works (reads the mapping).
        reloaded = open_index(mapped.save(tmp_path / "sharded2"))
        assert len(reloaded) == len(keys) - 1


class TestLegacyAndFallback:
    @pytest.mark.parametrize("fixture", ["v1-table.npz", "v2-table.npz"])
    def test_legacy_fixtures_load_under_mmap(self, fixture):
        """Pre-band-keys files (no saved keys at all) open under mmap
        via the streamed hashing path, identically to eager."""
        eager = open_index(FIXTURES / fixture)
        mapped = open_index(FIXTURES / fixture, mmap=True)
        assert isinstance(mapped, TableIndex)
        assert mapped.keys == eager.keys
        assert sorted(mapped.lsh.removed) == sorted(eager.lsh.removed)
        queries = np.stack([eager.vector(key) for key in eager.keys
                            if key in eager][:3])
        assert _rankings(mapped, queries, k=3) == \
            _rankings(eager, queries, k=3)

    def test_file_without_band_keys_rehashes(self, tmp_path):
        """Strip the band_keys member from a fresh save: load must fall
        back to hashing and produce the same buckets."""
        index, _keys, vectors = _make_index(n=40)
        path = index.save(tmp_path / "full.npz")
        with np.load(path) as archive:
            assert "band_keys" in archive.files
            stripped = {name: archive[name] for name in archive.files
                        if name != "band_keys"}
        np.savez(tmp_path / "stripped.npz", **stripped)
        for mmap in (False, True):
            loaded = open_index(tmp_path / "stripped.npz", mmap=mmap)
            assert loaded.lsh._tables == index.lsh._tables
            assert _rankings(loaded, vectors[:5]) == \
                _rankings(index, vectors[:5])

    def test_mismatched_band_keys_fall_back_to_hashing(self, tmp_path):
        """A band_keys array whose shape disagrees with the payload
        (foreign writer / hand edit) is ignored, not trusted."""
        index, _keys, vectors = _make_index(n=40)
        path = index.save(tmp_path / "full.npz")
        with np.load(path) as archive:
            members = {name: archive[name] for name in archive.files}
        members["band_keys"] = members["band_keys"][:, :2]   # wrong bands
        np.savez(tmp_path / "bad.npz", **members)
        loaded = open_index(tmp_path / "bad.npz", mmap=True)
        assert loaded.lsh._tables == index.lsh._tables

    def test_compressed_member_falls_back_to_eager(self, tmp_path):
        """A compressed archive (np.savez_compressed — no writer here
        produces one, but a user might) still opens under mmap=True via
        the eager fallback, with identical results."""
        index, _keys, vectors = _make_index(n=40)
        path = index.save(tmp_path / "full.npz")
        with np.load(path) as archive:
            members = {name: archive[name] for name in archive.files}
        np.savez_compressed(tmp_path / "squeezed.npz", **members)
        loaded = open_index(tmp_path / "squeezed.npz", mmap=True)
        assert _rankings(loaded, vectors[:5]) == _rankings(index, vectors[:5])

    def test_empty_index_roundtrips_under_mmap(self, tmp_path):
        empty = VectorIndex(dim=8, seed=0)
        path = empty.save(tmp_path / "empty.npz")
        loaded = open_index(path, mmap=True)
        assert len(loaded) == 0
        assert loaded.query_brute_many(np.ones((1, 8)), k=1) == [[]]


class TestBandKeyPersistence:
    def test_save_records_band_keys_member(self, tmp_path):
        index, _keys, _vectors = _make_index(n=30)
        path = index.save(tmp_path / "one.npz")
        with np.load(path) as archive:
            assert "band_keys" in archive.files
            band_keys = archive["band_keys"]
        assert band_keys.shape == (len(index.lsh), index.spec.n_bands)
        assert band_keys.dtype == np.int64
        assert np.array_equal(band_keys, index.lsh.band_keys_matrix())

    def test_incremental_add_and_bulk_add_record_same_keys(self):
        rng = np.random.default_rng(5)
        vectors = rng.standard_normal((20, 12))
        bulk = VectorIndex(dim=12, seed=3)
        bulk.add_batch([f"k{i}" for i in range(20)], vectors)
        serial = VectorIndex(dim=12, seed=3)
        for i, row in enumerate(vectors):
            serial.add(f"k{i}", row)
        assert np.array_equal(bulk.lsh.band_keys_matrix(),
                              serial.lsh.band_keys_matrix())

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_random_lifecycle_mmap_equals_eager(self, tmp_path_factory,
                                                data):
        """Property: build → random removes → save → open both ways →
        identical rankings on random queries (both layouts exercised
        through the single-file save each shard uses)."""
        tmp_path = tmp_path_factory.mktemp("prop")
        rng_seed = data.draw(st.integers(0, 2**16))
        n = data.draw(st.integers(5, 60))
        dim = data.draw(st.sampled_from([4, 16]))
        rng = np.random.default_rng(rng_seed)
        vectors = rng.standard_normal((n, dim))
        keys = [f"k{i:04d}" for i in range(n)]
        index = VectorIndex(dim=dim, seed=0)
        index.add_batch(keys, vectors)
        for victim in data.draw(st.lists(st.integers(0, n - 1), max_size=4,
                                         unique=True)):
            if keys[victim] in index:
                index.remove(keys[victim])
        path = index.save(tmp_path / "prop.npz")
        eager = open_index(path)
        mapped = open_index(path, mmap=True)
        queries = rng.standard_normal((4, dim))
        k = data.draw(st.integers(1, n + 1))
        assert _rankings(mapped, queries, k=k) == \
            _rankings(eager, queries, k=k)


class TestQuantizedUnderMmap:
    def _quantized_path(self, tmp_path, n=60):
        index, keys, vectors = _make_index(n=n)
        index.quantize()
        return index.save(tmp_path / "quant.npz"), index, keys, vectors

    def test_quantized_layout_cold_opens_without_reading_data(self,
                                                              tmp_path):
        """Under ``mmap=True`` the int8 sidecar members map straight
        from the file, exactly like the fp vectors — a cold open reads
        headers only, never the vector or sidecar data."""
        path, index, keys, _vectors = self._quantized_path(tmp_path)
        mapped = open_index(path, mmap=True)
        assert mapped.quantized
        for row in (mapped.lsh.quantized_arrays()[0][0],
                    mapped.vector(keys[0])):
            base = row
            while base is not None and not isinstance(base, np.memmap):
                base = base.base
            assert isinstance(base, np.memmap)
        q8, scales, norms = mapped.lsh.quantized_arrays()
        want_q8, want_scales, want_norms = index.lsh.quantized_arrays()
        assert np.array_equal(q8, want_q8)
        assert np.array_equal(scales, want_scales)
        assert np.array_equal(norms, want_norms)

    def test_writeback_to_mapped_int8_raises(self, tmp_path):
        path, _index, _keys, _vectors = self._quantized_path(tmp_path)
        mapped = open_index(path, mmap=True)
        row = mapped.lsh.quantized_arrays()[0][0]
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 7

    def test_mmap_npz_member_handles_non_float_dtypes(self, tmp_path):
        """The hand-rolled npz member parser must map int8 data and
        float32 sidecar members (not just the float64 vectors) with the
        right dtype, shape, and alignment."""
        from repro.index.index import _mmap_npz_member

        path, index, _keys, _vectors = self._quantized_path(tmp_path)
        want_q8, want_scales, want_norms = index.lsh.quantized_arrays()
        q8 = _mmap_npz_member(path, "q8.npy")
        assert q8.dtype == np.int8 and np.array_equal(q8, want_q8)
        scales = _mmap_npz_member(path, "q_scales.npy")
        assert scales.dtype == np.float32
        assert np.array_equal(scales, want_scales)
        norms = _mmap_npz_member(path, "q_norms.npy")
        assert norms.dtype == np.float32
        assert np.array_equal(norms, want_norms)

    def test_quantized_rankings_identical_under_mmap(self, tmp_path):
        path, index, _keys, vectors = self._quantized_path(tmp_path)
        queries = np.vstack([vectors[:4],
                             np.random.default_rng(3).standard_normal(
                                 (4, 16))])
        want = _rankings(index, queries)
        for mmap in (False, True):
            loaded = open_index(path, mmap=mmap, quantized=True)
            assert loaded.use_quantized
            assert _rankings(loaded, queries) == want


class TestTypedIndexesUnderMmap:
    def test_table_and_column_indexes_serve_mapped(self, tmp_path, embedder,
                                                   corpus):
        tables = TableIndex.build(embedder, corpus)
        columns = ColumnIndex.build(embedder, corpus)
        table_path = tables.save(tmp_path / "tables.npz")
        column_path = columns.save(tmp_path / "columns.npz")
        mapped_tables = open_index(table_path, mmap=True)
        mapped_columns = open_index(column_path, mmap=True)
        for table in corpus[:3]:
            want = [(hit.key, hit.score)
                    for hit in tables.query_table(embedder, table, k=3)]
            got = [(hit.key, hit.score)
                   for hit in mapped_tables.query_table(embedder, table,
                                                        k=3)]
            assert got == want
        want = [(hit.key, hit.score)
                for hit in columns.query_column(embedder, corpus[0], 0, k=3)]
        got = [(hit.key, hit.score)
               for hit in mapped_columns.query_column(embedder, corpus[0], 0,
                                                      k=3)]
        assert got == want


class TestSavedPayloadIntact:
    def test_payload_member_unchanged_by_band_keys(self, tmp_path):
        """The JSON payload shape older readers parse is untouched —
        band_keys is purely additive."""
        index, _keys, _vectors = _make_index(n=20)
        path = index.save(tmp_path / "one.npz")
        with np.load(path) as archive:
            payload = json.loads(bytes(archive[_PAYLOAD_KEY]).decode())
        assert payload["format_version"] == 2
        assert set(payload) == {"format_version", "params", "keys", "meta",
                                "tombstones"}
