"""Correctness and quality of returned rankings.

A ranking is a list of ``(key, score)`` pairs.  Every reply is checked
structurally; a fixed 1-in-``SAMPLE_EVERY`` sample is compared bit for
bit with the offline ``open_index(path).query_many`` answer (JSON
round-trips floats exactly); quality is computed from what was
*returned*, never from the reference.
"""

from __future__ import annotations

import json

import numpy as np

from repro.eval.metrics import mean_average_precision, mean_reciprocal_rank

SAMPLE_EVERY = 8
K = 10


def well_formed(ranking, k: int = K) -> bool:
    """Exactly ``k`` distinct keys with non-increasing scores."""
    if ranking is None or len(ranking) != k:
        return False
    keys = [key for key, _score in ranking]
    scores = [score for _key, score in ranking]
    return (len(set(keys)) == k
            and all(a >= b for a, b in zip(scores, scores[1:])))


def parse_reply(status: int, body: bytes) -> list[tuple[str, float]] | None:
    """The ranking in a ``POST /query`` reply, or ``None`` when the
    reply is not a 200 carrying well-formed hits."""
    if status != 200:
        return None
    try:
        ranking = [(hit["key"], hit["score"])
                   for hit in json.loads(body)["hits"]]
    except (ValueError, KeyError, TypeError):
        return None
    return ranking if well_formed(ranking) else None


def count_mismatches(returned: list, expected: list) -> int:
    return sum(got != want for got, want in zip(returned, expected))


def exact_top_k(corpus: np.ndarray, queries: np.ndarray,
                k: int = K) -> list[list[int]]:
    """Row ids of the ``k`` highest full-cosine neighbours of every
    query, best first, by float64 brute force — the recall reference."""
    unit = corpus / np.linalg.norm(corpus, axis=1, keepdims=True)
    out: list[list[int]] = []
    for start in range(0, len(queries), 32):
        scores = queries[start:start + 32] @ unit.T
        top = np.argpartition(-scores, k, axis=1)[:, :k]
        order = np.argsort(-np.take_along_axis(scores, top, axis=1), axis=1)
        out.extend(np.take_along_axis(top, order, axis=1).tolist())
    return out


def row_of(key: str) -> int:
    """Corpus row behind a synthetic key (``k000123`` -> 123)."""
    return int(key[1:])


def quality(rankings: list, query_labels: np.ndarray, labels: np.ndarray,
            exact: list[list[int]]) -> dict:
    """recall/MAP/MRR at 10 of returned rankings over a planted-cluster
    corpus: relevant = same cluster id, MAP normalised by the cluster's
    size as ``repro.eval.tasks`` does."""
    sizes = np.bincount(labels)
    relevance, totals, recalls = [], [], []
    for ranking, label, truth in zip(rankings, query_labels, exact):
        rows = [row_of(key) for key, _score in ranking]
        relevance.append([labels[row] == label for row in rows])
        totals.append(int(sizes[label]))
        recalls.append(len(set(rows) & set(truth)) / len(truth))
    return {"recall_at_10": float(np.mean(recalls)),
            "map_at_10": mean_average_precision(relevance, K, totals),
            "mrr_at_10": mean_reciprocal_rank(relevance, K)}
