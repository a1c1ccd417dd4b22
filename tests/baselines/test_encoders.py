"""Text-MLM (BioBERT-like), TUTA-like, and DITTO baselines."""

import numpy as np
import pytest

from repro.baselines import (
    BioBERTLike,
    DittoMatcher,
    TextMLM,
    TutaEmbedder,
    corpus_tuples,
    serialize_column,
    serialize_table,
    serialize_tuple,
)
from repro.datasets import generate_em_dataset, load_dataset
from repro.tables import Table, figure1_table, table2_relational

CORPUS = load_dataset("cancerkg", n_tables=10, seed=8)
TEXTS = corpus_tuples(CORPUS)


class TestAdapters:
    def test_serialize_tuple_includes_vmd_label(self):
        t = figure1_table()
        text = serialize_tuple(t, 0)
        assert "Previously Untreated" in text
        assert "20.3 months" in text

    def test_serialize_column_includes_header(self):
        t = figure1_table()
        text = serialize_column(t, 1)
        assert "OS" in text and "months" in text

    def test_serialize_table_includes_caption(self):
        t = table2_relational()
        assert "Employees" in serialize_table(t)
        assert "Employees" not in serialize_table(t, include_caption=False)

    def test_corpus_tuples_counts(self):
        t = table2_relational()
        texts = corpus_tuples([t])
        assert len(texts) == 1 + t.n_rows  # header line + tuples
        with_captions = corpus_tuples([t], include_captions=True)
        assert len(with_captions) == len(texts) + 1


class TestTextMLM:
    def test_training_reduces_loss(self):
        model = TextMLM.train_on_texts(TEXTS[:40], steps=0, hidden=24,
                                       vocab_size=300, seed=0)
        losses = model.pretrain(TEXTS[:40], steps=30, batch_size=6, lr=3e-3)
        k = len(losses) // 4
        assert np.mean(losses[-k:]) < np.mean(losses[:k])

    def test_embed_text_shape_and_cache(self):
        model = TextMLM.train_on_texts(TEXTS[:20], steps=2, hidden=24,
                                       vocab_size=300)
        v1 = model.embed_text("overall survival")
        v2 = model.embed_text("overall survival")
        assert v1.shape == (24,)
        assert v1 is v2  # cached object

    def test_empty_corpus_rejected(self):
        model = TextMLM.train_on_texts(TEXTS[:5], steps=0, hidden=24,
                                       vocab_size=200)
        with pytest.raises(ValueError):
            model.pretrain(["", " "], steps=1)

    def test_biobert_from_tables(self):
        model = BioBERTLike.from_tables(CORPUS[:5], steps=2, hidden=24,
                                        vocab_size=300)
        assert model.embed_text("treatment").shape == (24,)


class TestTuta:
    @pytest.fixture(scope="class")
    def tuta(self):
        return TutaEmbedder.build(CORPUS[:6], steps=5, hidden=24,
                                  vocab_size=300, seed=0)

    def test_serialize_joint_sequence(self, tuta):
        arrays = tuta.serialize(figure1_table())
        assert len(arrays["token_ids"]) > 4
        kinds = {k for k, _r, _c in arrays["refs"]}
        # Joint context: metadata and data share one sequence.
        assert {"hmd", "vmd", "data"} <= kinds

    def test_tree_depths_assigned(self, tuta):
        arrays = tuta.serialize(figure1_table())
        assert arrays["depths"].max() >= 2

    def test_column_embedding(self, tuta):
        v = tuta.embed_column(figure1_table(), 1)
        assert v.shape == (24,)
        assert np.isfinite(v).all()

    def test_table_embedding(self, tuta):
        v = tuta.embed_table(figure1_table())
        assert v.shape == (24,)

    def test_text_embedding(self, tuta):
        v = tuta.embed_text("ramucirumab")
        assert v.shape == (24,)

    def test_table_cache_survives_a_reused_id(self, tuta):
        """A table built where a collected one lived (same ``id()``)
        gets its own vector, not the collected table's cached one."""
        fresh = TutaEmbedder(tuta.tokenizer, tuta.model, tuta.max_seq_len)
        source_of_id: dict[int, int] = {}
        for i in range(200):
            source = i % len(CORPUS)
            table = Table.from_dict(CORPUS[source].to_dict())
            earlier = source_of_id.get(id(table))
            if earlier is not None and earlier != source:
                assert np.array_equal(tuta.embed_table(table),
                                      fresh.embed_table(table))
                return
            source_of_id[id(table)] = source
            tuta.embed_table(table)
            del table
        pytest.skip("no freed table's id was reused within 200 tables")

    def test_pretrain_reduces_loss(self):
        tuta = TutaEmbedder.build(CORPUS[:6], steps=0, hidden=24,
                                  vocab_size=300, seed=0)
        losses = tuta.pretrain(CORPUS[:6], steps=25, lr=3e-3, seed=1)
        k = max(len(losses) // 4, 1)
        assert np.mean(losses[-k:]) < np.mean(losses[:k])


class TestDitto:
    def test_learns_easy_matching(self):
        pairs = generate_em_dataset("amazon-google", n_pairs=40, seed=0)
        train, test = pairs[:60], pairs[60:]
        matcher = DittoMatcher.build(train, hidden=24, vocab_size=400, seed=0)
        matcher.fit(train, epochs=10, batch_size=8, lr=1e-3)
        assert matcher.evaluate_f1(train) > 0.9
        assert matcher.evaluate_f1(test) > 0.6

    def test_predictions_binary(self):
        pairs = generate_em_dataset("abt-buy", n_pairs=10, seed=1)
        matcher = DittoMatcher.build(pairs, hidden=24, vocab_size=300, seed=0)
        predictions = matcher.predict(pairs)
        assert set(predictions) <= {0, 1}
        assert len(predictions) == len(pairs)
