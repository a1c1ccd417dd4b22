"""Word2Vec and simulated LLM/RAG baseline tests."""

import numpy as np
import pytest

from repro.baselines import (
    LLM_PROFILES,
    SimulatedLLM,
    TfidfIndex,
    Word2Vec,
    llm_column_clustering,
    llm_table_clustering,
)
from repro.datasets import load_dataset
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


class TestTfidf:
    def test_self_retrieval(self):
        docs = ["alpha beta gamma", "delta epsilon", "alpha alpha beta"]
        index = TfidfIndex(docs)
        assert index.retrieve("alpha beta gamma", k=1)[0] == 0

    def test_char_ngrams_catch_morphology(self):
        docs = ["vaccination campaign", "crime statistics"]
        word_index = TfidfIndex(docs, char_ngrams=False)
        char_index = TfidfIndex(docs, char_ngrams=True)
        # 'vaccinations' (plural) has no exact word match.
        assert char_index.scores("vaccinations")[0] > word_index.scores("vaccinations")[0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TfidfIndex([])


class TestSimulatedLLM:
    def test_rank_is_permutation(self):
        llm = SimulatedLLM("gpt-4", seed=0)
        candidates = [f"document {i}" for i in range(15)]
        order = llm.rank("document 3", candidates)
        assert sorted(order) == list(range(15))

    def test_profiles_exist(self):
        assert set(LLM_PROFILES) == {"gpt-2", "llama-2", "gpt-3.5", "gpt-4"}
        assert "gpt-4" in LLM_PROFILES["gpt-4"].describe()

    def test_unknown_profile_rejected(self):
        with pytest.raises(KeyError):
            SimulatedLLM("gpt-17")

    def test_name_includes_rag(self):
        assert SimulatedLLM("gpt-4", use_rag=True).name == "gpt-4+RAG"
        assert SimulatedLLM("gpt-4").name == "gpt-4"

    def test_gpt4_rag_finds_exact_match_first(self):
        llm = SimulatedLLM("gpt-4", use_rag=True, seed=0)
        candidates = ["population of cities in texas",
                      "colon cancer treatment efficacy",
                      "vaccine efficacy against covid"]
        order = llm.rank("treatment efficacy for colon cancer", candidates)
        assert order[0] == 1


class TestLLMTasks:
    CORPUS = load_dataset("cancerkg", n_tables=16, seed=6)

    def test_cc_runs_and_is_bounded(self):
        llm = SimulatedLLM("gpt-4", use_rag=True, seed=0)
        result = llm_column_clustering(self.CORPUS, llm, max_queries=8)
        assert 0.0 <= result.map_at_k <= 1.0
        assert 0.0 <= result.mrr_at_k <= 1.0

    def test_rag_improves_weak_model(self):
        plain = SimulatedLLM("llama-2", use_rag=False, seed=0)
        ragged = SimulatedLLM("llama-2", use_rag=True, seed=0)
        r_plain = llm_column_clustering(self.CORPUS, plain, max_queries=12)
        r_rag = llm_column_clustering(self.CORPUS, ragged, max_queries=12)
        assert r_rag.map_at_k >= r_plain.map_at_k

    def test_gpt4_beats_gpt2(self):
        weak = SimulatedLLM("gpt-2", seed=0)
        strong = SimulatedLLM("gpt-4", use_rag=True, seed=0)
        r_weak = llm_column_clustering(self.CORPUS, weak, max_queries=12)
        r_strong = llm_column_clustering(self.CORPUS, strong, max_queries=12)
        assert r_strong.map_at_k > r_weak.map_at_k

    def test_tc_runs(self):
        llm = SimulatedLLM("gpt-4", use_rag=True, seed=0)
        result = llm_table_clustering(self.CORPUS, llm)
        assert result.n_queries >= 1
        assert 0.0 <= result.map_at_k <= 1.0
