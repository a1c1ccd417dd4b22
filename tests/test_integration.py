"""Cross-package integration tests: the whole pipeline, end to end."""

import numpy as np
import pytest

from repro.core import TabBiNConfig, TabBiNEmbedder
from repro.datasets import corpus_stats, load_dataset
from repro.eval import (
    collect_entities,
    column_clustering,
    entity_clustering,
    table_clustering,
)
from repro.metadata import MetadataClassifier, training_set_from_tables
from repro.tables import parse_grid


def improved(losses) -> bool:
    """Whether the smoothed loss went down: the last quarter's mean
    below the first quarter's."""
    quarter = max(len(losses) // 4, 1)
    return (len(losses) >= 4
            and np.mean(losses[-quarter:]) < np.mean(losses[:quarter]))


@pytest.fixture(scope="module")
def corpus():
    return load_dataset("cancerkg", n_tables=18, seed=21)


@pytest.fixture(scope="module")
def embedder(corpus):
    emb, stats = TabBiNEmbedder.build(
        corpus, config=TabBiNConfig.tiny(), steps=40, vocab_size=500, seed=0,
    )
    # Pre-training must actually learn (loss trending down).
    assert improved(stats["row"].losses) or improved(stats["column"].losses)
    return emb


class TestFullPipeline:
    def test_all_three_tasks_beat_chance(self, corpus, embedder):
        rng = np.random.default_rng(0)
        noise = {}

        def random_col(t, j):
            key = (id(t), j)
            if key not in noise:
                noise[key] = rng.standard_normal(8)
            return noise[key]

        cc = column_clustering(corpus, embedder.column_embedding, max_queries=25)
        cc_random = column_clustering(corpus, random_col, max_queries=25)
        assert cc.map_at_k > cc_random.map_at_k

        tc = table_clustering(corpus, embedder.table_embedding)
        assert tc.map_at_k > 0.4

        entities = collect_entities(corpus, max_per_type=15)
        ec = entity_clustering(entities, embedder.entity_embedding,
                               max_queries=20)
        assert ec.map_at_k > 0.3

    def test_same_topic_tables_more_similar(self, corpus, embedder):
        from repro.retrieval import cosine_similarity

        by_topic = {}
        for t in corpus:
            by_topic.setdefault(t.topic, []).append(t)
        topics = [t for t, members in by_topic.items() if len(members) >= 2]
        assert len(topics) >= 2
        a1, a2 = by_topic[topics[0]][:2]
        b1 = by_topic[topics[1]][0]
        va1 = embedder.table_embedding(a1)
        same = cosine_similarity(va1, embedder.table_embedding(a2))
        cross = cosine_similarity(va1, embedder.table_embedding(b1))
        assert same > cross - 0.25  # same topic should not be clearly worse

    def test_checkpoint_roundtrip_through_tasks(self, corpus, embedder,
                                                tmp_path):
        embedder.save(tmp_path / "model")
        loaded = TabBiNEmbedder.load(tmp_path / "model",
                                     TabBiNConfig.tiny())
        original = column_clustering(corpus, embedder.column_embedding,
                                     max_queries=10, seed=3)
        reloaded = column_clustering(corpus, loaded.column_embedding,
                                     max_queries=10, seed=3)
        assert original.map_at_k == pytest.approx(reloaded.map_at_k)


class TestMetadataToEmbeddingPipeline:
    def test_raw_grid_to_embedding(self, corpus, embedder):
        """Classifier labels a raw grid -> parse -> embed -> finite."""
        lines, labels = training_set_from_tables(corpus[:8])
        clf = MetadataClassifier("bigru", hidden=10, seed=0)
        clf.fit(lines, labels, epochs=8, lr=2e-2)
        grid = [
            ["Treatment", "Overall Survival", "Response Rate"],
            ["ramucirumab", "20.3 months", "45 %"],
            ["chemotherapy", "15.1 months", "34 %"],
        ]
        n_rows, _n_cols = clf.label_grid(grid)
        table = parse_grid(grid, n_header_rows=n_rows, caption="parsed")
        vec = embedder.table_embedding(table, variant="tblcomp1")
        assert np.isfinite(vec).all()
        assert vec.shape == (3 * embedder.hidden,)


class TestStatsContract:
    def test_generated_statistics_consistent(self, corpus):
        stats = corpus_stats(corpus)
        assert stats.n_tables == len(corpus)
        assert 0.0 <= stats.frac_non_relational <= 1.0
        assert stats.n_nested <= stats.n_tables
        # BiN-heavy corpus by construction.
        assert stats.frac_non_relational > 0.3


class TestAblationEndToEnd:
    def test_ablated_models_produce_different_embeddings(self, corpus):
        """Each Section 4.6 ablation changes the learned representation."""
        base_cfg = TabBiNConfig.tiny()
        base, _ = TabBiNEmbedder.build(corpus[:6], config=base_cfg, steps=3,
                                       vocab_size=400, seed=0)
        for component in ("visibility", "type", "units_nesting", "coords"):
            ablated, _ = TabBiNEmbedder.build(
                corpus[:6], config=base_cfg.ablate(component), steps=3,
                vocab_size=400, seed=0,
            )
            v1 = base.table_embedding(corpus[0])
            v2 = ablated.table_embedding(corpus[0])
            assert not np.allclose(v1, v2), component
