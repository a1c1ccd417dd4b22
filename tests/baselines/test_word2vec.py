"""Word2Vec baseline tests."""

import numpy as np
import pytest

from repro.baselines import Word2Vec
from repro.retrieval.similarity import top_k

CORPUS_TEXTS = [
    "the drug ramucirumab improves overall survival in colon cancer",
    "ramucirumab treatment overall survival months colon cancer",
    "the vaccine moderna shows efficacy against covid infection",
    "moderna vaccine efficacy covid doses administered",
    "city population area elevation founded region",
    "largest cities population region area statistics",
] * 10


class TestWord2Vec:
    def test_training_builds_vocab_and_vectors(self):
        w2v = Word2Vec(dim=16, seed=0).train(CORPUS_TEXTS, epochs=1)
        assert len(w2v.vocab) > 10
        assert w2v.w_in.shape == (len(w2v.vocab), 16)
        assert w2v.train_seconds > 0

    def test_cooccurring_words_are_similar(self):
        w2v = Word2Vec(dim=24, window=3, seed=0).train(CORPUS_TEXTS, epochs=8)
        words = sorted(w2v.vocab, key=w2v.vocab.get)
        [ranked] = top_k(w2v.vector("ramucirumab")[None, :], w2v.w_in, 8,
                         excludes=[w2v.vocab["ramucirumab"]])
        similar = [words[i] for i, _s in ranked]
        assert any(w in similar for w in ("survival", "colon", "cancer",
                                          "treatment", "overall"))

    def test_embed_text_averages(self):
        w2v = Word2Vec(dim=8, seed=0).train(CORPUS_TEXTS, epochs=1)
        v = w2v.embed_text("ramucirumab survival")
        expected = (w2v.vector("ramucirumab") + w2v.vector("survival")) / 2
        assert np.allclose(v, expected)

    def test_unknown_text_gives_zero(self):
        w2v = Word2Vec(dim=8, seed=0).train(CORPUS_TEXTS, epochs=1)
        assert np.allclose(w2v.embed_text("zzz qqq"), 0.0)
        assert w2v.vector("zzzz") is None

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Word2Vec(dim=0)
        with pytest.raises(ValueError):
            Word2Vec().train([])

    def test_min_count_filters(self):
        w2v = Word2Vec(dim=8, min_count=100, seed=0)
        with pytest.raises(Exception):
            # Everything filtered -> no trainable sentences survive encoding.
            w2v.train(["one two three"])
