"""TabBiNEmbedder public API and composite embedding tests."""

import numpy as np
import pytest

from repro.core import (
    SEGMENTS,
    TabBiNConfig,
    TabBiNEmbedder,
    TabBiNSerializer,
    numeric_composite,
    range_composite,
)
from repro.datasets import load_dataset
from repro.tables import figure1_table, table1_nested, table2_relational


class TestBuild:
    def test_build_trains_all_four_models(self, embedder):
        assert set(embedder.models) == {"row", "column", "hmd", "vmd"}

    def test_build_returns_stats(self, corpus):
        _emb, stats = TabBiNEmbedder.build(
            corpus, config=TabBiNConfig.tiny(), steps=2, vocab_size=300,
        )
        assert set(stats) == {"row", "column", "hmd", "vmd"}
        assert stats["row"].steps == 2

    @staticmethod
    def serialize_calls(monkeypatch) -> list:
        calls = []
        serialize = TabBiNSerializer.serialize

        def spy(self, table, segment):
            calls.append(segment)
            return serialize(self, table, segment)

        monkeypatch.setattr(TabBiNSerializer, "serialize", spy)
        return calls

    def test_zero_step_build_serializes_nothing(self, monkeypatch):
        calls = self.serialize_calls(monkeypatch)
        embedder, stats = TabBiNEmbedder.build(
            load_dataset("cancerkg", 8), config=TabBiNConfig.tiny(),
            steps=0, vocab_size=300, seed=3)
        assert calls == []
        assert all(s.steps == 0 for s in stats.values())
        # Untrained weights come only from the seeded RNG (no BLAS), so
        # this digest holds on every machine; it is the one the build
        # gave when it still serialized all four segments first.
        assert embedder.fingerprint() == "9e70595b84e371f4a81cc4eee3db54ed"

    def test_training_build_serializes_every_segment(self, monkeypatch,
                                                     corpus):
        calls = self.serialize_calls(monkeypatch)
        TabBiNEmbedder.build(corpus, config=TabBiNConfig.tiny(), steps=1,
                             vocab_size=300)
        assert sorted(calls) == sorted(SEGMENTS * len(corpus))

    def test_missing_segment_model_rejected(self, embedder):
        with pytest.raises(ValueError):
            TabBiNEmbedder(embedder.tokenizer, embedder.types,
                           embedder.config, {"row": embedder.models["row"]})


class TestEmbeddings:
    def test_column_embedding_is_composite(self, embedder):
        table = figure1_table()
        full = embedder.column_embedding(table, 1)
        data_only = embedder.column_embedding(table, 1, composite=False)
        assert full.shape == (2 * embedder.hidden,)
        assert data_only.shape == (embedder.hidden,)
        assert np.allclose(full[embedder.hidden:], data_only)

    def test_attribute_embedding_uses_deepest_label(self, embedder):
        table = figure1_table()
        a1 = embedder.attribute_embedding(table, 0)
        a2 = embedder.attribute_embedding(table, 1)
        assert a1.shape == (embedder.hidden,)
        assert not np.allclose(a1, a2)  # different leaf labels

    def test_table_embedding_variants(self, embedder):
        table = figure1_table()
        row = embedder.table_embedding(table, variant="row")
        comp1 = embedder.table_embedding(table, variant="tblcomp1")
        comp2 = embedder.table_embedding(table, variant="tblcomp2")
        assert row.shape == (embedder.hidden,)
        assert comp1.shape == (3 * embedder.hidden,)
        assert comp2.shape == (4 * embedder.hidden,)
        assert np.allclose(comp1, comp2[: 3 * embedder.hidden])

    def test_unknown_variant_rejected(self, embedder):
        with pytest.raises(ValueError):
            embedder.table_embedding(figure1_table(), variant="bogus")

    def test_vmd_block_zero_for_relational(self, embedder):
        emb = embedder.table_embedding(table2_relational(), variant="tblcomp1")
        h = embedder.hidden
        assert np.allclose(emb[2 * h:], 0.0)  # no VMD segment

    def test_entity_embedding(self, embedder):
        v = embedder.entity_embedding("ramucirumab")
        assert v.shape == (embedder.hidden,)
        assert np.isfinite(v).all()
        assert not np.allclose(v, 0.0)

    def test_similar_entities_closer_than_dissimilar(self, embedder):
        from repro.retrieval import cosine_similarity

        drug_a = embedder.entity_embedding("ramucirumab treatment")
        drug_b = embedder.entity_embedding("ramucirumab therapy")
        other = embedder.entity_embedding("previously untreated cohort")
        assert cosine_similarity(drug_a, drug_b) > cosine_similarity(drug_a, other)

    def test_caching_is_consistent(self, embedder):
        table = figure1_table()
        first = embedder.column_embedding(table, 0)
        second = embedder.column_embedding(table, 0)
        assert np.allclose(first, second)
        embedder.store.clear()
        third = embedder.column_embedding(table, 0)
        assert np.allclose(first, third)


class TestPersistence:
    def test_save_load_roundtrip(self, embedder, tmp_path):
        embedder.save(tmp_path / "ckpt")
        loaded = TabBiNEmbedder.load(tmp_path / "ckpt", TabBiNConfig.tiny())
        table = table1_nested()
        assert np.allclose(
            embedder.column_embedding(table, 0),
            loaded.column_embedding(table, 0),
        )
        assert np.allclose(
            embedder.table_embedding(table),
            loaded.table_embedding(table),
        )


class TestComposites:
    def test_numeric_composite_shape(self, embedder):
        ce = numeric_composite(embedder, "OS", 20.3, "months")
        assert ce.shape == (3 * embedder.hidden,)

    def test_range_composite_shape(self, embedder):
        ce = range_composite(embedder, "Age", 20, 30, "year")
        assert ce.shape == (4 * embedder.hidden,)

    def test_unit_changes_composite(self, embedder):
        a = numeric_composite(embedder, "OS", 20.3, "months")
        b = numeric_composite(embedder, "OS", 20.3, "mg")
        assert not np.allclose(a, b)
