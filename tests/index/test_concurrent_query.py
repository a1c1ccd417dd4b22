"""Concurrent query engine: batched + threaded paths ≡ the serial path.

The engine's contract is that every new execution mode is purely an
executor change: ``query_many`` (one hashing matmul per band + one
similarity GEMM per shard) and ``jobs=N`` thread fan-out must both
reproduce the serial single-query results exactly — rankings, tie
breaks, and the globally-decided brute-force fallback included.

Property-based layer (hypothesis): random corpora × shard counts
{1, 2, 5} × jobs {1, 2, 4}, and per-query excludes.  Duplicate-vector
ties and the exact brute-force threshold boundary are the reference
oracle's ``duplicate-ties`` and ``fallback-boundary`` corpora, for
every layout and ``jobs`` (``tests/test_reference_oracle.py``).

The read path is documented immutable (``repro/index/sharded.py``), so
a stress test hammers one ``ShardedIndex`` from many threads and
requires every result to stay correct.
"""

import random
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from testutil import ranked, ranked_many

from repro.index import IndexSpec, ShardedIndex, VectorIndex

DIM = 16
SHARD_COUNTS = (1, 2, 5)
JOBS_COUNTS = (1, 2, 4)


def gaussian(rng: random.Random, dim: int = DIM) -> np.ndarray:
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


def serial_baseline(single: VectorIndex, queries: np.ndarray, k: int,
                    excludes=None) -> list[list[tuple[str, float]]]:
    """The reference: one serial ``query_vector`` call per query row."""
    excludes = excludes or [None] * len(queries)
    return [ranked(single.query_vector(q, k, exclude=e))
            for q, e in zip(queries, excludes)]


class TestQueryManyProperty:
    """Hypothesis: query_many ≡ serial, across layouts, jobs and k."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_random_corpus_equivalence(self, data):
        seed = data.draw(st.integers(0, 2**16), label="seed")
        n_entries = data.draw(st.integers(1, 40), label="n_entries")
        n_shards = data.draw(st.sampled_from(SHARD_COUNTS), label="n_shards")
        jobs = data.draw(st.sampled_from(JOBS_COUNTS), label="jobs")
        n_queries = data.draw(st.integers(1, 6), label="n_queries")
        k = data.draw(st.integers(1, n_entries + 2), label="k")
        rng = random.Random(seed)
        live = {f"key{i:03d}": gaussian(rng) for i in range(n_entries)}
        single, sharded = build_pair(n_shards, live)
        queries = np.stack([gaussian(rng) for _ in range(n_queries)])
        want = serial_baseline(single, queries, k)
        assert ranked_many(single.query_many(queries, k)) == want
        assert ranked_many(sharded.query_many(queries, k, jobs=jobs)) == want
        threaded = [ranked(sharded.query_vector(q, k, jobs=jobs))
                    for q in queries]
        assert threaded == want

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_excludes_align_per_query(self, data):
        seed = data.draw(st.integers(0, 2**16), label="seed")
        n_shards = data.draw(st.sampled_from(SHARD_COUNTS), label="n_shards")
        rng = random.Random(seed)
        live = {f"key{i:03d}": gaussian(rng) for i in range(12)}
        single, sharded = build_pair(n_shards, live)
        keys = sorted(live)
        excludes = [keys[0], None, rng.choice(keys), "not-an-entry"]
        queries = np.stack([live[keys[0]], gaussian(rng),
                            gaussian(rng), gaussian(rng)])
        want = serial_baseline(single, queries, 5, excludes=excludes)
        assert ranked_many(single.query_many(queries, 5,
                                             excludes=excludes)) == want
        assert ranked_many(sharded.query_many(queries, 5, excludes=excludes,
                                              jobs=2)) == want
        assert keys[0] not in {key for key, _score in want[0]}


class TestQueryManySurface:
    def test_empty_query_matrix_returns_empty(self):
        rng = random.Random(0)
        single, sharded = build_pair(2, {"a": gaussian(rng)})
        empty = np.zeros((0, DIM))
        assert single.query_many(empty, 3) == []
        assert sharded.query_many(empty, 3) == []

    def test_bad_k_and_jobs_rejected(self):
        rng = random.Random(1)
        single, sharded = build_pair(2, {"a": gaussian(rng)})
        queries = np.stack([gaussian(rng)])
        with pytest.raises(ValueError, match="at least 1"):
            single.query_many(queries, 0)
        with pytest.raises(ValueError, match="at least 1"):
            sharded.query_many(queries, 0)
        with pytest.raises(ValueError, match="jobs"):
            sharded.query_many(queries, 3, jobs=0)
        with pytest.raises(ValueError, match="jobs"):
            sharded.query_vector(queries[0], 3, jobs=-1)
        with pytest.raises(ValueError, match="jobs"):
            single.query_many(queries, 3, jobs=0)

    def test_misaligned_excludes_rejected(self):
        rng = random.Random(2)
        single, sharded = build_pair(2, {"a": gaussian(rng)})
        queries = np.stack([gaussian(rng), gaussian(rng)])
        with pytest.raises(ValueError, match="align"):
            single.query_many(queries, 3, excludes=["a"])
        with pytest.raises(ValueError, match="align"):
            sharded.query_many(queries, 3, excludes=["a", None, "b"])

    def test_bad_query_shape_rejected(self):
        rng = random.Random(3)
        single, _sharded = build_pair(1, {"a": gaussian(rng)})
        with pytest.raises(ValueError, match="query matrix"):
            single.query_many(np.zeros((2, DIM + 1)), 3)
        with pytest.raises(ValueError, match="query matrix"):
            single.query_many(np.zeros(DIM), 3)     # 1-D, not a matrix

    def test_zero_vector_queries_score_zero(self):
        """cosine_similarity defines zero-norm similarity as 0; the GEMM
        path must agree instead of dividing by zero."""
        rng = random.Random(4)
        live = {f"key{i}": gaussian(rng) for i in range(6)}
        live["zero"] = np.zeros(DIM)
        single, sharded = build_pair(2, live)
        queries = np.stack([np.zeros(DIM), gaussian(rng)])
        want = serial_baseline(single, queries, len(live))
        got = ranked_many(sharded.query_many(queries, len(live), jobs=2))
        assert got == want
        assert all(score == 0.0 for _key, score in want[0])

    def test_shard_failure_propagates_not_hangs(self):
        """A failing shard must surface its error from the fan-out —
        serial and threaded — never return half-merged results."""
        rng = random.Random(5)
        live = {f"key{i}": gaussian(rng) for i in range(8)}
        _single, sharded = build_pair(3, live)

        def boom(*_args, **_kwargs):
            raise RuntimeError("shard exploded")

        sharded.shards[1].query_partial_many = boom
        sharded.shards[1].query_partial = boom
        queries = np.stack([gaussian(rng)])
        for jobs in (None, 2):
            with pytest.raises(RuntimeError, match="shard exploded"):
                sharded.query_many(queries, 3, jobs=jobs)
            with pytest.raises(RuntimeError, match="shard exploded"):
                sharded.query_vector(queries[0], 3, jobs=jobs)


class TestConcurrentReads:
    def test_many_threads_one_sharded_index(self):
        """The read path is documented immutable: N threads querying one
        ShardedIndex concurrently (each mixing query_many and
        query_vector, with and without jobs=) must all get exactly the
        single-thread results."""
        rng = random.Random(6)
        live = {f"key{i:03d}": gaussian(rng) for i in range(40)}
        single, sharded = build_pair(3, live)
        queries = np.stack([gaussian(rng) for _ in range(10)])
        want = serial_baseline(single, queries, 5)
        start = threading.Barrier(8)

        def hammer(worker: int) -> int:
            start.wait()                      # maximize interleaving
            checks = 0
            for round_ in range(5):
                jobs = (None, 1, 2)[(worker + round_) % 3]
                got = ranked_many(sharded.query_many(queries, 5, jobs=jobs))
                assert got == want
                q = (worker + round_) % len(queries)
                assert ranked(sharded.query_vector(queries[q], 5,
                                                   jobs=jobs)) == want[q]
                checks += 2
            return checks

        with ThreadPoolExecutor(max_workers=8) as pool:
            done = list(pool.map(hammer, range(8)))
        assert done == [10] * 8     # every thread ran every check
