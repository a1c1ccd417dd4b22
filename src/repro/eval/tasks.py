"""The three downstream tasks: CC, TC, EC (Sections 4.1-4.3).

Each task runner takes an *embedding function* (so TabBiN and every
baseline are evaluated through exactly the same protocol), ranks by
cosine similarity, forms top-20 clusters, and scores them with MAP@20 /
MRR@20 against the generator's gold labels (which replace the paper's
human annotators).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..retrieval.similarity import normalize_rows, top_k
from ..tables.table import Table
from .metrics import mean_average_precision, mean_reciprocal_rank


@dataclass(frozen=True)
class TaskResult:
    """MAP/MRR of one (model, dataset, task) cell of a results table."""

    map_at_k: float
    mrr_at_k: float
    n_queries: int
    k: int = 20

    def __str__(self) -> str:
        return f"{self.map_at_k:.2f}/{self.mrr_at_k:.2f}"

    @classmethod
    def from_relevance(cls, relevance: list[list[bool]], totals: list[int],
                       k: int) -> "TaskResult":
        """Score ranked relevance lists, one per query; ``totals[i]`` is
        query ``i``'s relevant count, the AP@k normalizer."""
        return cls(map_at_k=mean_average_precision(relevance, k, totals),
                   mrr_at_k=mean_reciprocal_rank(relevance, k),
                   n_queries=len(relevance), k=k)


def _relevance(queries: np.ndarray, query_labels: list, vectors: np.ndarray,
               labels: list, k: int, excludes=None) -> list[list[bool]]:
    """Rank ``vectors`` against every query row in one batched call and
    flag which of each query's top-k share its label."""
    return [[labels[i] == label for i, _s in ranked]
            for label, ranked in zip(query_labels,
                                     top_k(queries, vectors, k, excludes))]


# ----------------------------------------------------------------------
# Column Clustering
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ColumnRef:
    """A (table, column) pair with its gold concept."""

    table_index: int
    column: int
    concept: str


def collect_columns(corpus: list[Table],
                    predicate: Callable[[Table, int], bool] | None = None
                    ) -> list[ColumnRef]:
    """Enumerate evaluable columns, optionally filtered (e.g. numeric
    only, string only, large tables only)."""
    out: list[ColumnRef] = []
    for t_idx, table in enumerate(corpus):
        for j in range(table.n_cols):
            if predicate is None or predicate(table, j):
                out.append(ColumnRef(t_idx, j, table.column_concept(j)))
    return out


def column_clustering(corpus: list[Table],
                      embed_column: Callable[[Table, int], np.ndarray],
                      columns: list[ColumnRef] | None = None,
                      k: int = 20, max_queries: int | None = None,
                      seed: int = 0) -> TaskResult:
    """CC: rank columns against each query column; relevant = same
    concept (the schema-matching correspondence the paper targets)."""
    columns = columns if columns is not None else collect_columns(corpus)
    if len(columns) < 2:
        raise ValueError("need at least two columns to cluster")
    vectors = np.stack([
        embed_column(corpus[ref.table_index], ref.column) for ref in columns
    ])
    concepts = [ref.concept for ref in columns]
    counts = Counter(concepts)
    # A singleton concept has nothing to retrieve, so it is never a query.
    query_ids = [q for q in _sample(len(columns), max_queries, seed)
                 if counts[concepts[q]] > 1]
    if not query_ids:
        raise ValueError("no query column has a same-concept counterpart")
    query_concepts = [concepts[q] for q in query_ids]
    relevance = _relevance(vectors[query_ids], query_concepts, vectors,
                           concepts, k, excludes=query_ids)
    return TaskResult.from_relevance(
        relevance, [counts[c] - 1 for c in query_concepts], k)


# ----------------------------------------------------------------------
# Table Clustering
# ----------------------------------------------------------------------
def table_clustering(corpus: list[Table],
                     embed_table: Callable[[Table], np.ndarray],
                     tables: list[int] | None = None,
                     k: int = 20, seed: int = 0,
                     centroid_seeds: int = 3) -> TaskResult:
    """TC: per topic, rank all tables against the topic centroid
    (Section 4.2); relevant = same gold topic."""
    ids = tables if tables is not None else list(range(len(corpus)))
    labeled = [i for i in ids if corpus[i].topic is not None]
    if len(labeled) < 2:
        raise ValueError("need at least two topic-labeled tables")
    vectors = np.stack([embed_table(corpus[i]) for i in labeled])
    topics = [corpus[i].topic for i in labeled]
    rng = np.random.default_rng(seed)
    centroids, query_topics, totals = [], [], []
    for topic in sorted(set(topics)):
        members = [i for i, t in enumerate(topics) if t == topic]
        if len(members) < 2:
            continue
        seeds = list(rng.choice(members, size=min(centroid_seeds, len(members)),
                                replace=False))
        centroids.append(topic_centroid(vectors, seeds))
        query_topics.append(topic)
        totals.append(len(members))
    if not centroids:
        raise ValueError("no topic had at least two tables")
    relevance = _relevance(np.stack(centroids), query_topics, vectors, topics, k)
    return TaskResult.from_relevance(relevance, totals, k)


def topic_centroid(vectors: np.ndarray, member_ids: list[int]) -> np.ndarray:
    """Centroid embedding of a topic: the mean of its members' vectors."""
    if not member_ids:
        raise ValueError("cannot build a centroid from no members")
    return normalize_rows(vectors[member_ids]).mean(axis=0)


# ----------------------------------------------------------------------
# Entity Clustering
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EntityRef:
    """A catalog entry: surface form plus gold entity type."""

    text: str
    entity_type: str


def collect_entities(corpus: list[Table],
                     max_per_type: int | None = None,
                     seed: int = 0) -> list[EntityRef]:
    """Harvest the entity catalog from gold-typed cells (Section 4.3:
    columns with labels specific to each dataset)."""
    by_type: dict[str, list[str]] = {}
    for table in corpus:
        for cell in table.all_cells():
            if cell.entity_type and cell.text:
                bucket = by_type.setdefault(cell.entity_type, [])
                if cell.text not in bucket:
                    bucket.append(cell.text)
    rng = np.random.default_rng(seed)
    out: list[EntityRef] = []
    for entity_type in sorted(by_type):
        values = by_type[entity_type]
        if max_per_type is not None and len(values) > max_per_type:
            values = list(rng.choice(values, size=max_per_type, replace=False))
        out.extend(EntityRef(v, entity_type) for v in values)
    return out


def entity_clustering(entities: list[EntityRef],
                      embed_entity: Callable[[str], np.ndarray],
                      k: int = 20, max_queries: int | None = None,
                      seed: int = 0) -> TaskResult:
    """EC: rank catalog entries against each query entity; relevant =
    same entity type; AP@20 averaged per type then across types."""
    if len(entities) < 2:
        raise ValueError("need at least two entities")
    vectors = np.stack([embed_entity(e.text) for e in entities])
    types = [e.entity_type for e in entities]
    counts = Counter(types)
    # A singleton type has nothing to retrieve, so it is never a query.
    query_ids = [q for q in _sample(len(entities), max_queries, seed)
                 if counts[types[q]] > 1]
    query_types = [types[q] for q in query_ids]
    relevance = _relevance(vectors[query_ids], query_types, vectors, types,
                           k, excludes=query_ids)
    by_type: dict[str, list[list[bool]]] = {}
    for rel, entity_type in zip(relevance, query_types):
        by_type.setdefault(entity_type, []).append(rel)
    per_type = [TaskResult.from_relevance(rels, [counts[t] - 1] * len(rels), k)
                for t, rels in sorted(by_type.items())]
    if not per_type:
        return TaskResult(map_at_k=0.0, mrr_at_k=0.0, n_queries=0, k=k)
    return TaskResult(
        map_at_k=float(np.mean([r.map_at_k for r in per_type])),
        mrr_at_k=float(np.mean([r.mrr_at_k for r in per_type])),
        n_queries=len(query_ids), k=k,
    )


def _sample(n: int, max_queries: int | None, seed: int) -> list[int]:
    if max_queries is None or n <= max_queries:
        return list(range(n))
    rng = np.random.default_rng(seed)
    return sorted(rng.choice(n, size=max_queries, replace=False).tolist())
