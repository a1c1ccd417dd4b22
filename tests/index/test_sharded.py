"""ShardedIndex: fan-out queries must be indistinguishable from one big
index.

The central property (pinned over shard counts {1, 2, 5} and seeded
random lifecycles): a :class:`ShardedIndex` and a single
:class:`VectorIndex` over the same corpus return the *same hits with
the same scores* for every query — including when LSH blocking
under-delivers and the brute-force fallback kicks in, which the sharded
path must decide on the global candidate total, never per shard.  The
reference oracle pins the same over its fixed corpora for every shard
count and ``jobs`` (``tests/test_reference_oracle.py``).
"""

import random
import sys

import numpy as np
import pytest
from testutil import ranked

from repro.index import (
    ColumnIndex,
    IndexSpec,
    ShardedIndex,
    TableIndex,
    VectorIndex,
    shard_of,
    table_fingerprint,
)

DIM = 16
SHARD_COUNTS = (1, 2, 5)


def gaussian(rng: random.Random, dim: int = DIM) -> np.ndarray:
    # Distinct gaussians: exact score ties (where single- and sharded-
    # index tie-breaks could legitimately differ) have measure zero.
    return np.array([rng.gauss(0, 1) for _ in range(dim)])


def build_pair(n_shards: int, live: dict[str, np.ndarray], seed: int = 0):
    single = VectorIndex(dim=DIM, seed=seed)
    sharded = ShardedIndex.create(IndexSpec(kind="vector", dim=DIM,
                                            seed=seed), n_shards)
    if live:
        keys, vectors = list(live), np.stack(list(live.values()))
        single.add_batch(keys, vectors)
        sharded.add_batch(keys, vectors)
    return single, sharded


class TestEquivalenceProperty:
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    @pytest.mark.parametrize("walk_seed", [0, 1, 2])
    def test_random_lifecycle_walk_matches_single_index(self, n_shards,
                                                        walk_seed):
        """Seeded random interleavings of add / remove / compact keep the
        sharded index query-equivalent to a single index holding exactly
        the surviving entries — same hits, same scores, every k."""
        rng = random.Random(1000 * n_shards + walk_seed)
        live: dict[str, np.ndarray] = {}
        single = VectorIndex(dim=DIM, seed=3)
        sharded = ShardedIndex.create(IndexSpec(kind="vector", dim=DIM,
                                                seed=3), n_shards)
        counter = 0
        for _step in range(60):
            op = rng.random()
            if op < 0.6 or not live:
                key, vector = f"key{counter:04d}", gaussian(rng)
                counter += 1
                live[key] = vector
                single.add(key, vector)
                sharded.add(key, vector)
            elif op < 0.85:
                key = rng.choice(sorted(live))
                del live[key]
                single.remove(key)
                sharded.remove(key)
            else:
                single.compact()
                sharded.compact()
            assert len(sharded) == len(single) == len(live)
            if live:
                query = gaussian(rng)
                for k in (1, 3, len(live) + 2):
                    assert ranked(sharded.query_vector(query, k)) == \
                        ranked(single.query_vector(query, k))

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_bulk_corpus_same_hits_same_scores(self, n_shards):
        rng = random.Random(n_shards)
        live = {f"key{i:03d}": gaussian(rng) for i in range(48)}
        single, sharded = build_pair(n_shards, live)
        for _ in range(20):
            query = gaussian(rng)
            assert ranked(sharded.query_vector(query, 10)) == \
                ranked(single.query_vector(query, 10))

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_exclude_key_matches(self, n_shards):
        rng = random.Random(77)
        live = {f"key{i:03d}": gaussian(rng) for i in range(20)}
        single, sharded = build_pair(n_shards, live)
        target = "key007"
        hits_single = single.query_vector(live[target], 5, exclude=target)
        hits_sharded = sharded.query_vector(live[target], 5, exclude=target)
        assert ranked(hits_sharded) == ranked(hits_single)
        assert target not in {h.key for h in hits_sharded}

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_score_ties_break_by_key_in_both_layouts(self, n_shards):
        """Distinct keys can share one embedding (e.g. permuted rows
        under mean-pooling).  Ties — even at the k boundary — must
        resolve identically in both layouts: by key, not by
        layout-dependent insertion ids."""
        rng = random.Random(42)
        shared = gaussian(rng)
        live = {f"tie{i}": shared.copy() for i in range(6)}
        live.update({f"key{i}": gaussian(rng) for i in range(6)})
        single, sharded = build_pair(n_shards, live)
        for k in (1, 3, 6, 9, len(live)):
            got = ranked(sharded.query_vector(shared, k))
            want = ranked(single.query_vector(shared, k))
            assert got == want
            assert [key for key, _ in want[:min(k, 6)]] == \
                sorted(f"tie{i}" for i in range(min(k, 6)))

    def test_duplicate_key_in_non_owner_shard_stays_single(self):
        """A manually assembled layout may hold a key outside its hash
        owner; add must not create a second copy and queries must not
        return the key twice."""
        rng = random.Random(8)
        sharded = ShardedIndex.create(IndexSpec(kind="vector", dim=DIM), 3)
        key, vector = "stray", gaussian(rng)
        wrong = (shard_of(key, 3) + 1) % 3
        sharded.shards[wrong].add(key, vector)        # bypass routing
        assert key in sharded
        sharded.add(key, gaussian(rng))               # must dedupe globally
        sharded.add_batch([key, "other"],
                          np.stack([gaussian(rng), gaussian(rng)]))
        assert len(sharded) == 2
        assert key not in sharded.shards[shard_of(key, 3)]
        hits = sharded.query_vector(vector, k=2)
        assert [h.key for h in hits].count(key) == 1
        sharded.remove(key)
        assert key not in sharded

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_brute_force_fallback_is_global(self, n_shards):
        """k larger than any candidate pool: the single index brute-
        forces over everything, so the sharded one must too — even in
        shards whose local candidate count looks sufficient."""
        rng = random.Random(5)
        live = {f"key{i:03d}": gaussian(rng) for i in range(12)}
        single, sharded = build_pair(n_shards, live)
        query = gaussian(rng)
        k = len(live)                       # forces the fallback globally
        assert ranked(sharded.query_vector(query, k)) == \
            ranked(single.query_vector(query, k))
        assert len(sharded.query_vector(query, k)) == len(live)


class TestThreadedFanOut:
    """jobs=N only changes the executor: per-shard arithmetic and the
    shard-ordered merge are untouched, so results are bit-identical."""

    @pytest.mark.parametrize("jobs", (1, 2, 4))
    def test_jobs_bit_identical_to_serial_fanout(self, jobs):
        rng = random.Random(31)
        live = {f"key{i:03d}": gaussian(rng) for i in range(30)}
        _single, sharded = build_pair(3, live)
        for _ in range(5):
            query = gaussian(rng)
            want = sharded.query_vector(query, 8)
            got = sharded.query_vector(query, 8, jobs=jobs)
            assert [(h.key, h.score) for h in got] == \
                [(h.key, h.score) for h in want]    # full precision

    def test_jobs_covers_the_global_fallback(self):
        rng = random.Random(32)
        live = {f"key{i:03d}": gaussian(rng) for i in range(10)}
        single, sharded = build_pair(4, live)
        query = gaussian(rng)
        k = len(live)                       # forces the fallback globally
        assert ranked(sharded.query_vector(query, k, jobs=2)) == \
            ranked(single.query_vector(query, k))

    def test_bad_jobs_rejected(self):
        rng = random.Random(33)
        _single, sharded = build_pair(2, {"a": gaussian(rng)})
        for jobs in (0, -2):
            with pytest.raises(ValueError, match="jobs"):
                sharded.query_vector(gaussian(rng), 1, jobs=jobs)


class TestRouting:
    def test_add_routes_to_hash_owner(self):
        rng = random.Random(9)
        sharded = ShardedIndex.create(IndexSpec(kind="vector", dim=DIM), 4)
        for i in range(30):
            key = f"key{i}"
            sharded.add(key, gaussian(rng))
            owner = shard_of(key, 4)
            assert key in sharded.shards[owner]

    def test_column_keys_colocate_with_their_table(self):
        """``fp`` and ``fp:j`` must land in the same shard, for every
        shard count — column shards follow their table."""
        for n_shards in (2, 3, 5, 8):
            for fp in ("abc123", "deadbeef", "0f0f"):
                table_shard = shard_of(fp, n_shards)
                assert all(shard_of(f"{fp}:{j}", n_shards) == table_shard
                           for j in range(6))

    def test_duplicate_add_is_noop_across_api(self):
        rng = random.Random(2)
        sharded = ShardedIndex.create(IndexSpec(kind="vector", dim=DIM), 3)
        vector = gaussian(rng)
        first = sharded.add("dup", vector)
        assert sharded.add("dup", gaussian(rng)) == first
        assert len(sharded) == 1
        sharded.add_batch(["dup", "new"], np.stack([vector, gaussian(rng)]))
        assert len(sharded) == 2

    def test_contains_vector_remove_parity(self):
        rng = random.Random(4)
        live = {f"key{i}": gaussian(rng) for i in range(10)}
        _single, sharded = build_pair(3, live)
        assert "key3" in sharded and "ghost" not in sharded
        assert np.allclose(sharded.vector("key3"), live["key3"])
        sharded.remove("key3")
        assert "key3" not in sharded
        with pytest.raises(KeyError):
            sharded.remove("key3")
        with pytest.raises(KeyError):
            sharded.vector("key3")

    def test_k_below_one_rejected(self):
        rng = random.Random(1)
        _single, sharded = build_pair(2, {"a": gaussian(rng)})
        with pytest.raises(ValueError, match="at least 1"):
            sharded.query_vector(gaussian(rng), k=0)

    def test_k_up_to_maxsize_answers_like_one_index(self):
        """The merge over-fetches k per shard; a k the wire accepts
        must not push that past what islice takes."""
        rng = random.Random(2)
        single, sharded = build_pair(2, {f"key{i}": gaussian(rng)
                                         for i in range(6)})
        query = gaussian(rng)
        assert ([hit.key for hit in sharded.query_vector(query,
                                                         k=sys.maxsize)]
                == [hit.key for hit in single.query_vector(query,
                                                           k=sys.maxsize)])


class TestMergeAndRebalance:
    def test_merge_routes_and_dedupes(self):
        rng = random.Random(11)
        live = {f"key{i}": gaussian(rng) for i in range(10)}
        _single, sharded = build_pair(3, live)
        other = VectorIndex(dim=DIM, seed=0)
        other.add_batch(list(live)[:4], np.stack(list(live.values())[:4]))
        other.add("fresh", gaussian(rng))
        assert sharded.merge(other) == 1            # 4 duplicates deduped
        assert len(sharded) == 11
        assert "fresh" in sharded.shards[shard_of("fresh", 3)]

    def test_merge_sharded_into_sharded_different_counts(self):
        rng = random.Random(12)
        left_live = {f"left{i}": gaussian(rng) for i in range(8)}
        right_live = {f"right{i}": gaussian(rng) for i in range(7)}
        _s, left = build_pair(2, left_live)
        _s, right = build_pair(5, right_live)
        assert left.merge(right) == 7
        reference = VectorIndex(dim=DIM, seed=0)
        both = {**left_live, **right_live}
        reference.add_batch(list(both), np.stack(list(both.values())))
        query = gaussian(rng)
        assert ranked(left.query_vector(query, 6)) == \
            ranked(reference.query_vector(query, 6))

    def test_merge_single_with_sharded_source(self):
        """VectorIndex.merge accepts a ShardedIndex source (the CLI
        merges across layouts)."""
        rng = random.Random(13)
        live = {f"key{i}": gaussian(rng) for i in range(9)}
        _s, sharded = build_pair(4, live)
        single = VectorIndex(dim=DIM, seed=0)
        assert single.merge(sharded) == 9
        assert sorted(single.keys) == sorted(live)

    def test_merge_incompatible_dim_rejected(self):
        sharded = ShardedIndex.create(IndexSpec(kind="vector", dim=DIM), 2)
        with pytest.raises(ValueError, match="incompatible"):
            sharded.merge(VectorIndex(dim=DIM + 1))

    def test_merge_different_known_checkpoints_rejected(self):
        sharded = ShardedIndex.create(
            IndexSpec(kind="vector", dim=DIM, model_id="model-a"), 2)
        other = VectorIndex(dim=DIM)
        other.model_id = "model-b"
        with pytest.raises(ValueError, match="model_id"):
            sharded.merge(other)

    def test_merge_adopts_known_model_id(self):
        rng = random.Random(3)
        sharded = ShardedIndex.create(IndexSpec(kind="vector", dim=DIM), 2)
        other = VectorIndex(dim=DIM)
        other.model_id = "model-x"
        other.add("a", gaussian(rng))
        sharded.merge(other)
        assert sharded.model_id == "model-x"

    def test_rebalance_restores_ownership_and_results(self):
        rng = random.Random(21)
        live = {f"key{i}": gaussian(rng) for i in range(24)}
        _s, sharded = build_pair(3, live)
        query = gaussian(rng)
        before = ranked(sharded.query_vector(query, 8))
        moved = sharded.rebalance(5)
        assert sharded.n_shards == 5 and len(sharded) == 24
        assert moved > 0
        for position, shard in enumerate(sharded.shards):
            assert all(shard_of(key, 5) == position for key in shard.keys)
        assert ranked(sharded.query_vector(query, 8)) == before
        # Already balanced: nothing moves.
        assert sharded.rebalance() == 0

    def test_rebalance_reclaims_tombstones(self):
        rng = random.Random(22)
        live = {f"key{i}": gaussian(rng) for i in range(10)}
        _s, sharded = build_pair(2, live)
        sharded.remove("key0")
        assert sharded.n_tombstones == 1
        sharded.rebalance()
        assert sharded.n_tombstones == 0 and len(sharded) == 9


class TestBuildSharded:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_table_build_sharded_matches_single(self, embedder, corpus,
                                                shards):
        single = TableIndex.build(embedder, corpus)
        sharded = TableIndex.build_sharded(embedder, corpus, shards=shards)
        assert isinstance(sharded, ShardedIndex)
        assert sharded.kind == "table" and sharded.n_shards == shards
        assert len(sharded) == len(single)
        assert sharded.model_id == embedder.fingerprint()
        for table in corpus:
            got = ranked(sharded.query_table(embedder, table, k=3))
            want = ranked(single.query_table(embedder, table, k=3))
            assert got == want

    def test_column_build_sharded_matches_single(self, embedder, corpus):
        single = ColumnIndex.build(embedder, corpus)
        sharded = ColumnIndex.build_sharded(embedder, corpus, shards=3)
        assert sharded.kind == "column"
        assert len(sharded) == len(single)
        got = ranked(sharded.query_column(embedder, corpus[0], 0, k=4))
        want = ranked(single.query_column(embedder, corpus[0], 0, k=4))
        assert got == want

    def test_partitioning_matches_incremental_routing(self, embedder, corpus):
        """Map-reduce placement equals what incremental ``add`` would
        have chosen, so later adds and rebalance agree with builds."""
        sharded = TableIndex.build_sharded(embedder, corpus, shards=4)
        for position, shard in enumerate(sharded.shards):
            assert all(shard_of(key, 4) == position for key in shard.keys)
        assert sharded.rebalance() == 0

    def test_more_shards_than_tables_leaves_empty_shards(self, embedder,
                                                         corpus):
        sharded = TableIndex.build_sharded(embedder, corpus,
                                           shards=len(corpus) * 3)
        assert sharded.n_shards == len(corpus) * 3
        assert len(sharded) == len(corpus)
        assert 0 in sharded.shard_sizes()
        hits = sharded.query_table(embedder, corpus[0], k=2)
        assert len(hits) == 2

    def test_empty_corpus_rejected(self, embedder):
        with pytest.raises(ValueError, match="empty corpus"):
            TableIndex.build_sharded(embedder, [], shards=2)

    def test_bad_shard_count_rejected(self, embedder, corpus):
        with pytest.raises(ValueError, match="shards"):
            TableIndex.build_sharded(embedder, corpus, shards=0)

    def test_kind_guard_on_sharded_queries(self, embedder, corpus):
        tables = TableIndex.build_sharded(embedder, corpus, shards=2)
        with pytest.raises(ValueError, match="column index"):
            tables.query_column(embedder, corpus[0], 0)
        columns = ColumnIndex.build_sharded(embedder, corpus, shards=2)
        with pytest.raises(ValueError, match="table index"):
            columns.query_table(embedder, corpus[0])

    def test_round_trip_preserves_query_results(self, embedder, corpus,
                                                tmp_path):
        from repro.index import open_index

        sharded = TableIndex.build_sharded(embedder, corpus, shards=3)
        loaded = open_index(sharded.save(tmp_path / "tables"))
        assert isinstance(loaded, ShardedIndex)
        assert loaded.spec.extra.get("variant") == "tblcomp1"
        for table in corpus[:3]:
            assert ranked(loaded.query_table(embedder, table, k=3)) == \
                ranked(sharded.query_table(embedder, table, k=3))

    def test_query_excludes_self_but_keeps_k(self, embedder, corpus):
        sharded = TableIndex.build_sharded(embedder, corpus, shards=2)
        k = len(corpus) - 1
        hits = sharded.query_table(embedder, corpus[0], k=k)
        assert len(hits) == k
        assert table_fingerprint(corpus[0]) not in {h.key for h in hits}
