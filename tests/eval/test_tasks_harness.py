"""Task runner tests using oracle and adversarial embedders."""

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.eval import (
    EntityRef,
    ResultsTable,
    collect_columns,
    collect_entities,
    column_clustering,
    entity_clustering,
    table_clustering,
)

CORPUS = load_dataset("webtables", n_tables=21, seed=5)


def oracle_column_embedder():
    """Embeds a column as a one-hot of its gold concept: a perfect model."""
    concepts = sorted({r.concept for r in collect_columns(CORPUS)})
    index = {c: i for i, c in enumerate(concepts)}

    def embed(table, j):
        v = np.zeros(len(index))
        v[index[table.column_concept(j)]] = 1.0
        return v

    return embed


def random_embedder(dim=16, seed=0):
    rng = np.random.default_rng(seed)
    cache = {}

    def embed(*key_parts):
        key = tuple(id(p) if not isinstance(p, (int, str)) else p
                    for p in key_parts)
        if key not in cache:
            cache[key] = rng.standard_normal(dim)
        return cache[key]

    return embed


class TestColumnClustering:
    def test_oracle_scores_perfect(self):
        result = column_clustering(CORPUS, oracle_column_embedder(),
                                   max_queries=25)
        assert result.map_at_k == pytest.approx(1.0)
        assert result.mrr_at_k == pytest.approx(1.0)

    def test_random_embedder_scores_low(self):
        embed = random_embedder()
        result = column_clustering(CORPUS, lambda t, j: embed(t, j),
                                   max_queries=25)
        assert result.map_at_k < 0.6

    def test_predicate_filters_columns(self):
        numeric_cols = collect_columns(
            CORPUS, predicate=lambda t, j: all(
                c.is_numeric for c in t.column(j) if c.text
            ),
        )
        assert numeric_cols
        assert len(numeric_cols) < len(collect_columns(CORPUS))

    def test_requires_two_columns(self):
        with pytest.raises(ValueError):
            column_clustering(CORPUS, oracle_column_embedder(), columns=[])

    def test_result_format(self):
        result = column_clustering(CORPUS, oracle_column_embedder(),
                                   max_queries=5)
        text = str(result)
        assert "/" in text and result.n_queries == 5


class TestTableClustering:
    def test_oracle_topic_embedder_perfect(self):
        topics = sorted({t.topic for t in CORPUS})
        index = {t: i for i, t in enumerate(topics)}

        def embed(table):
            v = np.zeros(len(index))
            v[index[table.topic]] = 1.0
            return v

        result = table_clustering(CORPUS, embed)
        assert result.map_at_k == pytest.approx(1.0)

    def test_random_low(self):
        embed = random_embedder()
        result = table_clustering(CORPUS, lambda t: embed(t))
        assert result.map_at_k < 0.75

    def test_requires_topics(self):
        from repro.tables import Table

        untopiced = [Table("t", [["a"]], [["1"]]) for _ in range(3)]
        with pytest.raises(ValueError):
            table_clustering(untopiced, lambda t: np.ones(3))


class TestEntityClustering:
    def test_catalog_collection(self):
        entities = collect_entities(CORPUS)
        assert entities
        assert all(e.entity_type for e in entities)
        types = {e.entity_type for e in entities}
        assert len(types) >= 2

    def test_max_per_type_respected(self):
        entities = collect_entities(CORPUS, max_per_type=3)
        from collections import Counter

        counts = Counter(e.entity_type for e in entities)
        assert max(counts.values()) <= 3

    def test_oracle_entity_embedder_perfect(self):
        entities = collect_entities(CORPUS, max_per_type=8)
        types = sorted({e.entity_type for e in entities})
        index = {t: i for i, t in enumerate(types)}
        lookup = {e.text: e.entity_type for e in entities}

        def embed(text):
            v = np.zeros(len(index))
            v[index[lookup[text]]] = 1.0
            return v

        result = entity_clustering(entities, embed, max_queries=20)
        assert result.map_at_k == pytest.approx(1.0)

    def test_requires_entities(self):
        with pytest.raises(ValueError):
            entity_clustering([], lambda t: np.ones(2))

    def test_singleton_type_is_not_a_scored_query(self):
        """A type with one entry has nothing to retrieve: it is neither
        scored nor counted in ``n_queries``."""
        vectors = {"a1": [1.0, 0.0], "a2": [1.0, 0.1], "b": [0.0, 1.0]}
        entities = [EntityRef("a1", "A"), EntityRef("a2", "A"),
                    EntityRef("b", "B")]
        result = entity_clustering(entities, lambda t: np.array(vectors[t]))
        assert result.n_queries == 2
        assert (result.map_at_k, result.mrr_at_k) == (1.0, 1.0)


class TestResultsTable:
    def test_add_and_get(self):
        table = ResultsTable("Demo", columns=["A", "B"])
        table.add("row1", "A", "0.5/0.6")
        assert table.get("row1", "A") == "0.5/0.6"

    def test_unknown_column_rejected(self):
        table = ResultsTable("Demo", columns=["A"])
        with pytest.raises(KeyError):
            table.add("row1", "B", 1)

    def test_markdown_output(self):
        table = ResultsTable("Demo", columns=["A"])
        table.add("r", "A", "x")
        md = table.to_markdown()
        assert "### Demo" in md and "| r | x |" in md

    def test_text_output_and_missing_cells(self):
        table = ResultsTable("Demo", columns=["A", "B"])
        table.add("r", "A", "x")
        text = table.to_text()
        assert "x" in text and "-" in text

    def test_save(self, tmp_path):
        table = ResultsTable("Demo", columns=["A"])
        table.add("r", "A", 1)
        path = table.save(tmp_path / "out.md")
        assert path.read_text().startswith("### Demo")
