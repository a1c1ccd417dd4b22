"""Shared helper for the cluster test layer (corpora, layouts, rankings
and HTTP calls come from ``tests/testutil.py``).

The load-bearing comparison everywhere is *distributed equals local*:
whatever a :class:`~repro.cluster.RemoteShardedIndex` returns must be
bit-equal — keys, scores, tie order — to the local :class:`~repro.index.
ShardedIndex` over the same flat shard sequence.
"""

from __future__ import annotations

import numpy as np


def query_pool(vectors: np.ndarray, n_fresh: int = 4, seed: int = 11):
    """Corpus rows (duplicate-tie path) plus fresh gaussians (generic
    path) as one query matrix."""
    rng = np.random.default_rng(seed)
    fresh = rng.standard_normal((n_fresh, vectors.shape[1]))
    return np.vstack([vectors[:4], fresh])
