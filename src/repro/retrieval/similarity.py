"""Batched cosine similarity and top-k ranking."""

from __future__ import annotations

import numpy as np

#: Queries scored per similarity product: memory stays O(block x items).
QUERY_BLOCK = 256


def normalize_rows(matrix: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """L2-normalize each row; zero rows stay zero."""
    matrix = np.asarray(matrix, dtype=float)
    norms = np.linalg.norm(matrix, axis=-1, keepdims=True)
    return matrix / np.maximum(norms, eps)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two vectors (0 when either is zero)."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a @ b / (na * nb))


def top_k(queries: np.ndarray, items: np.ndarray, k: int,
          excludes=None) -> list[list[tuple[int, float]]]:
    """The ``k`` most cosine-similar rows of ``items`` for every row of
    a ``(Q, dim)`` query matrix: one ``(index, similarity)`` list per
    query, best first.

    ``excludes`` optionally names one row per query (an index or
    ``None``) to leave out, typically the query itself.  Excluded and
    non-finite rows are never returned.  Ties keep row order (stable
    sort).  Each block of :data:`QUERY_BLOCK` queries is scored with one
    einsum, whose arithmetic does not depend on the batch shape, so a
    Q-row call equals Q one-row calls and equal vectors tie exactly.
    """
    queries = normalize_rows(queries)
    if queries.ndim != 2:
        raise ValueError(f"expected a (Q, dim) query matrix, got {queries.shape}")
    excludes = [None] * len(queries) if excludes is None else list(excludes)
    if len(excludes) != len(queries):
        raise ValueError(f"excludes must align with the {len(queries)} "
                         f"queries, got {len(excludes)}")
    items = normalize_rows(items)
    out: list[list[tuple[int, float]]] = []
    for start in range(0, len(queries), QUERY_BLOCK):
        sims = np.einsum("qd,nd->qn", queries[start:start + QUERY_BLOCK], items)
        for row, exclude in zip(sims, excludes[start:start + QUERY_BLOCK]):
            if exclude is not None:
                row[exclude] = -np.inf
        # Excluded and non-finite rows sort last, so they reach the first
        # k only when fewer than k finite rows exist; the filter drops them.
        order = np.argsort(-sims, axis=1, kind="stable")[:, :max(k, 0)]
        out.extend([(int(i), float(row[i])) for i in ranked if np.isfinite(row[i])]
                   for row, ranked in zip(sims, order))
    return out
