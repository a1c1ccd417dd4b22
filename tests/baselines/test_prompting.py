"""Chain-of-Table prompting extension tests."""

import pytest

from repro.baselines import SimulatedLLM, llm_column_clustering
from repro.baselines.prompting import ChainOfTableLLM, OPERATIONS, _metadata_view, _shape_view, _value_view
from repro.datasets import load_dataset

CORPUS = load_dataset("cancerkg", n_tables=16, seed=9)


class TestViews:
    def test_metadata_view_drops_numbers(self):
        text = "overall survival 20.3 months response 45 %"
        view = _metadata_view(text)
        assert "20.3" not in view and "survival" in view

    def test_value_view_keeps_numbers(self):
        text = "overall survival 20.3 months response 45 %"
        view = _value_view(text)
        assert "20.3" in view and "survival" not in view

    def test_value_view_falls_back_when_no_numbers(self):
        assert _value_view("no digits here") == "no digits here"

    def test_shape_view_counts(self):
        view = _shape_view("12 20-30 45% 7")
        assert view.startswith("numbers")
        assert "pct1" in view

    def test_three_operations(self):
        assert len(OPERATIONS) == 3


class TestChainOfTable:
    def test_rank_is_permutation(self):
        cot = ChainOfTableLLM(SimulatedLLM("llama-2", seed=0))
        candidates = [f"table about topic {i} with {i * 7} rows"
                      for i in range(20)]
        order = cot.rank("table about topic 3 with 21 rows", candidates)
        assert sorted(order) == list(range(20))

    def test_name(self):
        cot = ChainOfTableLLM(SimulatedLLM("gpt-4", use_rag=True))
        assert cot.name == "gpt-4+RAG+CoT"

    def test_invalid_keep_fraction(self):
        with pytest.raises(ValueError):
            ChainOfTableLLM(SimulatedLLM("gpt-2"), keep_fraction=0.0)

    def test_small_pools_skip_pruning(self):
        cot = ChainOfTableLLM(SimulatedLLM("gpt-4"), min_pool=10)
        order = cot.rank("query text", ["a b", "c d", "e f"])
        assert sorted(order) == [0, 1, 2]

    def test_cot_helps_weak_model_on_cc(self):
        """The paper's future-work hypothesis: iterative table prompting
        improves a plain LLM's ranking quality."""
        plain = SimulatedLLM("llama-2", seed=0)
        cot = ChainOfTableLLM(SimulatedLLM("llama-2", seed=0))
        r_plain = llm_column_clustering(CORPUS, plain, max_queries=12)
        r_cot = llm_column_clustering(CORPUS, cot, max_queries=12)
        assert r_cot.map_at_k >= r_plain.map_at_k - 0.02
