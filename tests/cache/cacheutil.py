"""Shared helpers for the result-cache test layer.

Same corpus discipline as the serving/catalog tests: seeded gaussian
vectors with duplicate rows (dense score ties), so a cache that served
a near-miss — a stale entry, a neighbouring query's answer, someone
else's ranking — cannot hide behind unique scores.  Query streams are
*zipfian* over a small pool, the workload the cache exists for.
"""

from __future__ import annotations

import numpy as np

from repro.index import IndexSpec, ShardedIndex, VectorIndex

#: Each distinct vector appears this many times (distinct keys).
DUP_EVERY = 3


def make_corpus(n: int = 120, dim: int = 12, seed: int = 0):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(((n + DUP_EVERY - 1) // DUP_EVERY, dim))
    vectors = np.repeat(base, DUP_EVERY, axis=0)[:n]
    return [f"t{i:05d}" for i in range(n)], vectors


def build_index(keys, vectors, n_shards: int, seed: int = 0):
    dim = vectors.shape[1]
    if n_shards == 1:
        index = VectorIndex(dim=dim, seed=seed)
    else:
        index = ShardedIndex.create(
            IndexSpec(kind="vector", dim=dim, seed=seed), n_shards)
    index.add_batch(keys, vectors)
    return index


def save_layout(tmp_path, keys, vectors, n_shards: int, seed: int = 0,
                name: str = "index"):
    """Persist as a single ``.npz`` (``n_shards == 1``) or a sharded
    directory; returns the saved path for ``open_index``."""
    index = build_index(keys, vectors, n_shards, seed=seed)
    if n_shards == 1:
        return index.save(tmp_path / f"{name}.npz")
    return index.save(tmp_path / name)


def zipfian_stream(rng: np.random.Generator, pool_size: int, length: int,
                   s: float = 1.1) -> np.ndarray:
    """``length`` indices into a pool of ``pool_size`` queries, drawn
    zipfian: P(rank r) ∝ 1/r^s — a few hot queries, a long cold tail."""
    weights = 1.0 / np.arange(1, pool_size + 1) ** s
    return rng.choice(pool_size, size=length, p=weights / weights.sum())


def ranked(hits) -> list[tuple[str, float]]:
    """Exact (key, score) pairs — no rounding; cached must be
    bit-identical to uncached, not merely close."""
    return [(hit.key, hit.score) for hit in hits]


def ranked_many(hits_per_query) -> list[list[tuple[str, float]]]:
    return [ranked(hits) for hits in hits_per_query]
