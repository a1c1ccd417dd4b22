"""Property-based tests for the index lifecycle (remove/compact/merge).

Observatory-style probing: instead of a handful of hand-picked
examples, a seeded stdlib ``random`` walk drives random interleavings of
``add`` / ``remove`` / ``compact`` / ``merge`` against a plain-dict
model of the surviving entries, and after every step the index must be
*equivalent* to one built fresh from the survivors — same live keys,
same query results — and ``save``/``load`` must reproduce it exactly.
"""

import random

import numpy as np
import pytest

from repro.index import FORMAT_VERSION, TableIndex, VectorIndex, open_index
from repro.retrieval import CosineLSH

DIM = 16
RNG = np.random.default_rng(12)


def fresh_vector(rng: random.Random) -> np.ndarray:
    # Distinct gaussians: exact score ties (where ranking order could
    # legitimately differ between equivalent indexes) have measure zero.
    return np.array([rng.gauss(0, 1) for _ in range(DIM)])


def build_reference(live: dict[str, np.ndarray], seed: int = 0) -> VectorIndex:
    """The oracle: an index built fresh from the surviving entries."""
    ref = VectorIndex(dim=DIM, seed=seed)
    if live:
        ref.add_batch(list(live), np.stack(list(live.values())))
    return ref


def assert_equivalent(index: VectorIndex, live: dict[str, np.ndarray],
                      queries: list[np.ndarray]) -> None:
    assert set(index.keys[i] for i in index.lsh.live_ids()) == set(live)
    assert len(index) == len(live)
    reference = build_reference(live, seed=index.spec.seed)
    k = min(5, len(live))
    if not k:        # k < 1 is now a ValueError, and there is nothing to rank
        return
    for query in queries:
        got = [(h.key, round(h.score, 9)) for h in index.query_vector(query, k)]
        want = [(h.key, round(h.score, 9))
                for h in reference.query_vector(query, k)]
        assert got == want
    for key, vector in live.items():
        assert np.allclose(index.vector(key), vector)


def assert_round_trip(index: VectorIndex, tmp_path,
                      queries: list[np.ndarray]) -> None:
    """``save``/``load`` must reproduce the full mid-lifecycle state."""
    loaded = open_index(index.save(tmp_path / "step.npz"))
    assert loaded.keys == index.keys
    assert loaded.meta == index.meta
    assert len(loaded) == len(index)
    assert loaded.n_tombstones == index.n_tombstones
    assert loaded.lsh.removed == index.lsh.removed
    assert loaded._id_of == index._id_of
    k = max(min(5, len(index)), 1)
    for query in queries:
        got = [(h.key, round(h.score, 12))
               for h in loaded.query_vector(query, k)]
        want = [(h.key, round(h.score, 12))
                for h in index.query_vector(query, k)]
        assert got == want


@pytest.mark.parametrize("walk_seed", [0, 1, 2])
def test_random_lifecycle_walk_matches_fresh_build(walk_seed, tmp_path):
    """add/remove/compact/merge in any order == fresh build of survivors."""
    rng = random.Random(walk_seed)
    queries = [fresh_vector(rng) for _ in range(3)]
    index = VectorIndex(dim=DIM, seed=0)
    live: dict[str, np.ndarray] = {}
    removed_once: list[str] = []
    serial = 0

    for step in range(40):
        op = rng.choice(["add", "add", "remove", "compact", "merge",
                         "readd", "dup"])
        if op == "add" or (op == "readd" and not removed_once) \
                or (op == "dup" and not live):
            key, vector = f"t{serial}", fresh_vector(rng)
            serial += 1
            index.add(key, vector)
            live[key] = vector
        elif op == "readd":
            # Re-adding a previously removed key must resurrect it.
            key = rng.choice(removed_once)
            if key not in live:
                vector = fresh_vector(rng)
                index.add(key, vector)
                live[key] = vector
        elif op == "dup":
            # Duplicate fingerprints are no-ops, never double entries.
            key = rng.choice(list(live))
            assert index.add(key, fresh_vector(rng)) == index._id_of[key]
        elif op == "remove":
            if live:
                key = rng.choice(list(live))
                index.remove(key)
                del live[key]
                removed_once.append(key)
            else:
                with pytest.raises(KeyError):
                    index.remove("never-added")
        elif op == "compact":
            expected = index.n_tombstones
            assert index.compact() == expected
            assert index.n_tombstones == 0
        elif op == "merge":
            other = VectorIndex(dim=DIM, seed=0)
            n_new = rng.randint(0, 3)
            incoming: dict[str, np.ndarray] = {}
            for _ in range(n_new):
                key, vector = f"t{serial}", fresh_vector(rng)
                serial += 1
                incoming[key] = vector
            if live and rng.random() < 0.5:
                # Overlap with a survivor: merge must fingerprint-dedupe.
                dup = rng.choice(list(live))
                incoming[dup] = live[dup]
            if incoming:
                other.add_batch(list(incoming), np.stack(list(incoming.values())))
            added = index.merge(other)
            assert added == len(set(incoming) - set(live))
            for key, vector in incoming.items():
                live.setdefault(key, vector)

        assert_equivalent(index, live, queries)
        if step % 5 == 0:
            assert_round_trip(index, tmp_path, queries)

    assert_round_trip(index, tmp_path, queries)


class TestTombstoneQueries:
    def test_query_never_returns_tombstoned_key(self):
        """Regression: with tombstones present, the brute-force fallback
        in ``CosineLSH.query`` iterated *all* stored slots, so a removed
        key could come back whenever LSH candidates < k."""
        index = VectorIndex(dim=8, n_planes=10, n_bands=1, seed=0)
        vectors = RNG.standard_normal((6, 8))
        index.add_batch([f"k{i}" for i in range(6)], vectors)
        index.remove("k2")
        index.remove("k5")
        # k > live forces the fallback path.
        hits = index.query_vector(vectors[2], k=6)
        keys = [h.key for h in hits]
        assert "k2" not in keys and "k5" not in keys
        assert len(hits) == 4

    def test_exclude_plus_tombstones(self):
        index = VectorIndex(dim=8, seed=1)
        vectors = RNG.standard_normal((8, 8))
        index.add_batch([f"k{i}" for i in range(8)], vectors)
        index.remove("k1")
        hits = index.query_vector(vectors[0], k=8, exclude="k0")
        assert {h.key for h in hits}.isdisjoint({"k0", "k1"})
        assert len(hits) == 6

    def test_remove_then_compact_then_query(self):
        """The acceptance-criteria path: remove -> compact -> query."""
        index = VectorIndex(dim=8, seed=2)
        vectors = RNG.standard_normal((10, 8))
        index.add_batch([f"k{i}" for i in range(10)], vectors)
        for key in ("k0", "k4", "k9"):
            index.remove(key)
        assert index.compact() == 3
        hits = index.query_vector(vectors[4], k=10)
        assert {h.key for h in hits}.isdisjoint({"k0", "k4", "k9"})
        assert len(hits) == 7

    def test_remove_missing_key_raises(self):
        index = VectorIndex(dim=4)
        index.add("a", RNG.standard_normal(4))
        with pytest.raises(KeyError):
            index.remove("b")
        index.remove("a")
        with pytest.raises(KeyError):
            index.remove("a")            # already tombstoned


class TestCompact:
    def test_compact_without_tombstones_is_noop(self):
        index = VectorIndex(dim=4, seed=3)
        index.add_batch(["a", "b"], RNG.standard_normal((2, 4)))
        lsh_before = index.lsh
        assert index.compact() == 0
        assert index.lsh is lsh_before   # no pointless rebuild

    def test_compact_everything(self):
        index = VectorIndex(dim=4, seed=3)
        index.add_batch(["a", "b"], RNG.standard_normal((2, 4)))
        index.remove("a")
        index.remove("b")
        assert index.compact() == 2
        assert len(index) == 0 and index.keys == []
        assert index.query_vector(RNG.standard_normal(4), k=3) == []

    def test_compact_shrinks_saved_file(self, tmp_path):
        index = VectorIndex(dim=32, seed=0)
        index.add_batch([f"k{i}" for i in range(64)],
                        RNG.standard_normal((64, 32)))
        for i in range(48):
            index.remove(f"k{i}")
        fat = index.save(tmp_path / "fat.npz")
        index.compact()
        slim = index.save(tmp_path / "slim.npz")
        assert slim.stat().st_size < fat.stat().st_size


class TestMerge:
    def test_merge_dedupes_by_fingerprint(self):
        a, b = VectorIndex(dim=4, seed=0), VectorIndex(dim=4, seed=0)
        vectors = RNG.standard_normal((3, 4))
        a.add_batch(["x", "y"], vectors[:2])
        b.add_batch(["y", "z"], vectors[1:])
        assert a.merge(b) == 1
        assert set(a._id_of) == {"x", "y", "z"}

    def test_merge_skips_others_tombstones(self):
        a, b = VectorIndex(dim=4, seed=0), VectorIndex(dim=4, seed=0)
        b.add_batch(["p", "q"], RNG.standard_normal((2, 4)))
        b.remove("p")
        assert a.merge(b) == 1
        assert "p" not in a and "q" in a

    def test_merge_allows_different_lsh_geometry(self):
        """Only the vector space must match: the merged index re-hashes
        incoming vectors through its own hyperplanes."""
        a = VectorIndex(dim=4, n_planes=8, n_bands=4, seed=0)
        b = VectorIndex(dim=4, n_planes=6, n_bands=2, seed=9)
        b.add("k", RNG.standard_normal(4))
        assert a.merge(b) == 1

    def test_merge_rejects_dim_mismatch(self):
        with pytest.raises(ValueError, match="incompatible"):
            VectorIndex(dim=4).merge(VectorIndex(dim=5))

    def test_merge_rejects_kind_mismatch(self):
        with pytest.raises(ValueError, match="incompatible"):
            VectorIndex(dim=4).merge(TableIndex(dim=4))

    def test_merge_rejects_variant_mismatch(self):
        with pytest.raises(ValueError, match="incompatible"):
            TableIndex(dim=4, variant="row").merge(
                TableIndex(dim=4, variant="tblcomp1"))

    def test_merge_rejects_different_known_checkpoints(self):
        """Same kind/dim/variant but different source models means
        different embedding spaces — cosine scores across them are
        meaningless, so merge must refuse."""
        a, b = VectorIndex(dim=4), VectorIndex(dim=4)
        a.model_id, b.model_id = "model-a", "model-b"
        b.add("k", RNG.standard_normal(4))
        with pytest.raises(ValueError, match="model_id"):
            a.merge(b)

    def test_merge_unknown_checkpoint_is_wildcard(self):
        """Hand-built or pre-v2 indexes carry no model_id; they merge
        with anything rather than breaking old workflows."""
        a, b = VectorIndex(dim=4), VectorIndex(dim=4)
        a.model_id = "model-a"              # b's stays None
        b.add("k", RNG.standard_normal(4))
        assert a.merge(b) == 1
        assert a.model_id == "model-a"

    def test_merge_adopts_known_checkpoint(self):
        """A wildcard merge must not *stay* a wildcard: after folding in
        a known checkpoint, a later merge with a different known
        checkpoint has to be refused, not chained through."""
        a, b, c = (VectorIndex(dim=4) for _ in range(3))
        b.model_id, c.model_id = "model-b", "model-c"
        b.add("kb", RNG.standard_normal(4))
        c.add("kc", RNG.standard_normal(4))
        a.merge(b)
        assert a.model_id == "model-b"
        with pytest.raises(ValueError, match="model_id"):
            a.merge(c)

    def test_merge_unions_corpus_provenance(self):
        """A merged multi-corpus index must not claim the first shard's
        corpus identity verbatim."""
        a, b = VectorIndex(dim=4), VectorIndex(dim=4)
        a.corpus = {"dataset": "cancerkg", "n_tables": 4, "seed": 0}
        b.corpus = {"dataset": "cancerkg", "n_tables": 4, "seed": 1}
        b.add("k", RNG.standard_normal(4))
        a.merge(b)
        assert a.corpus == {"merged_from": [
            {"dataset": "cancerkg", "n_tables": 4, "seed": 0},
            {"dataset": "cancerkg", "n_tables": 4, "seed": 1},
        ]}
        # A third shard flattens into the same list, deduped.
        c = VectorIndex(dim=4)
        c.corpus = {"dataset": "cancerkg", "n_tables": 4, "seed": 1}
        a.merge(c)
        assert len(a.corpus["merged_from"]) == 2

    def test_merge_same_corpus_keeps_stamp(self):
        a, b = VectorIndex(dim=4), VectorIndex(dim=4)
        stamp = {"dataset": "saus", "n_tables": 2, "seed": 0}
        a.corpus, b.corpus = dict(stamp), dict(stamp)
        b.add("k", RNG.standard_normal(4))
        a.merge(b)
        assert a.corpus == stamp

    def test_build_stamps_and_round_trips_model_id(self, embedder, corpus,
                                                   tmp_path):
        index = TableIndex.build(embedder, corpus)
        assert index.model_id == embedder.fingerprint()
        loaded = open_index(index.save(tmp_path / "stamped.npz"))
        assert loaded.model_id == index.model_id


class TestVersionedFormat:
    def test_saved_payload_is_versioned(self, tmp_path):
        import json

        import numpy as np

        path = VectorIndex(dim=4).save(tmp_path / "v.npz")
        with np.load(path) as archive:
            payload = json.loads(bytes(archive["__index__"]).decode("utf-8"))
        assert payload["format_version"] == FORMAT_VERSION
        assert payload["tombstones"] == []

    def test_unversioned_v1_payload_still_loads(self, tmp_path):
        """PR-1 files had no ``format_version``/``tombstones`` fields."""
        import json

        import numpy as np

        index = VectorIndex(dim=4, seed=1)
        vectors = RNG.standard_normal((2, 4))
        index.add_batch(["a", "b"], vectors)
        payload = json.dumps({"params": index.spec.to_params(), "keys": index.keys,
                              "meta": index.meta})
        path = tmp_path / "v1.npz"
        np.savez(path, vectors=index.lsh.vectors(),
                 __index__=np.frombuffer(payload.encode("utf-8"),
                                         dtype=np.uint8))
        loaded = open_index(path)
        assert set(loaded._id_of) == {"a", "b"}
        assert loaded.n_tombstones == 0

    def test_future_version_rejected(self, tmp_path):
        import json

        import numpy as np

        index = VectorIndex(dim=4)
        payload = json.dumps({"format_version": FORMAT_VERSION + 1,
                              "params": index.spec.to_params(), "keys": [],
                              "meta": [], "tombstones": []})
        path = tmp_path / "future.npz"
        np.savez(path, vectors=index.lsh.vectors(),
                 __index__=np.frombuffer(payload.encode("utf-8"),
                                         dtype=np.uint8))
        with pytest.raises(ValueError, match="format v3"):
            open_index(path)


class TestLSHRemoval:
    """The bucket-removal primitive itself (repro.retrieval.CosineLSH)."""

    def test_remove_drops_id_from_every_band_bucket(self):
        lsh = CosineLSH(dim=8, n_planes=4, n_bands=3, seed=0)
        ids = lsh.add_all(RNG.standard_normal((5, 8)))
        lsh.remove(ids[2])
        for table in lsh._tables:
            for bucket in table.values():
                assert ids[2] not in bucket

    def test_removed_id_never_a_candidate(self):
        lsh = CosineLSH(dim=8, seed=0)
        vectors = RNG.standard_normal((4, 8))
        lsh.add_all(vectors)
        lsh.remove(1)
        assert 1 not in lsh.candidates_many(vectors[1:2])[0]

    def test_counters_and_live_ids(self):
        lsh = CosineLSH(dim=4, seed=0)
        lsh.add_all(RNG.standard_normal((4, 4)))
        lsh.remove(0)
        lsh.remove(3)
        assert len(lsh) == 4              # slots, positional
        assert len(lsh.live_ids()) == 2
        assert lsh.live_ids() == [1, 2]
        assert lsh.removed == {0, 3}

    def test_double_remove_and_bad_id_raise(self):
        lsh = CosineLSH(dim=4, seed=0)
        lsh.add(RNG.standard_normal(4))
        with pytest.raises(KeyError):
            lsh.remove(5)
        lsh.remove(0)
        with pytest.raises(KeyError):
            lsh.remove(0)

    def test_add_after_remove_gets_fresh_id(self):
        lsh = CosineLSH(dim=4, seed=0)
        lsh.add(RNG.standard_normal(4))
        lsh.remove(0)
        assert lsh.add(RNG.standard_normal(4)) == 1
        assert lsh.live_ids() == [1]

    def test_candidates_exclude_removed_even_if_bucket_purge_missed(self):
        """remove() recomputes band keys from the stored vector; bulk
        inserts hashed through a different matmul shape, so a last-bit
        rounding flip at a sign boundary could leave the id behind in a
        bucket.  candidates() must filter tombstones unconditionally."""
        index = VectorIndex(dim=8, seed=0)
        vectors = RNG.standard_normal((3, 8))
        index.add_batch(["k0", "k1", "k2"], vectors)
        index.remove("k1")
        lsh = index.lsh
        # Simulate the desync: sneak the removed id back into a bucket.
        key = next(iter(lsh._tables[0]), 0)
        lsh._tables[0].setdefault(key, []).append(1)
        assert 1 not in lsh.candidates_many(vectors[1:2])[0]
        assert "k1" not in [hit.key for hit in
                            index.query_many(vectors[1:2], k=3)[0]]
