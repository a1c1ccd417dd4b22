"""Simulated LLMs with optional RAG for Table 14 (Section 4.7).

The paper prompts GPT-2 / Llama2 / GPT-3.5 / GPT-4 (the latter two via a
Sycamore RAG front-end) to perform CC and TC.  Commercial LLM access is
impossible offline, so each model is simulated by a *lexical reasoning
engine* with a calibrated quality profile.  The simulation is honest —
it never reads the gold labels — and reproduces the mechanism behind the
paper's headline observation:

- an LLM ranks candidates by lexical/semantic overlap with the query;
  stronger models use richer features (word + character n-grams) and
  less ranking noise;
- without RAG the model's context window only fits a subset of a
  large candidate set, so unseen candidates land at the ranking tail in
  arbitrary order (the paper: LLMs alone ingest only samples);
- RAG (a TF-IDF retriever, standing in for Sycamore) pre-selects the
  candidates the LLM actually sees, which lifts quality substantially;
- top-of-ranking behaviour is better than deep ranking: the first item
  is usually right (high MRR) while the tail stays noisy (lower MAP) —
  exactly the RAG+GPT-4 "perfect MRR, weaker MAP" shape of Table 14.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LLMProfile:
    """Quality profile of one simulated model."""

    name: str
    use_char_ngrams: bool     # richer matching features (stronger models)
    noise: float              # ranking-score noise (weaker models = more)
    context_limit: int        # candidates readable without RAG
    top_sharpness: float      # how reliably the single best match is first

    def describe(self) -> str:
        return (f"{self.name}: ngrams={'word+char' if self.use_char_ngrams else 'word'}, "
                f"noise={self.noise}, context={self.context_limit}")


#: Calibrated so relative ordering matches Table 14:
#: GPT-2 < Llama2 < Llama2+RAG ~ GPT-3.5+RAG < GPT-4+RAG.
LLM_PROFILES: dict[str, LLMProfile] = {
    "gpt-2": LLMProfile("gpt-2", use_char_ngrams=False, noise=0.8,
                        context_limit=8, top_sharpness=0.3),
    "llama-2": LLMProfile("llama-2", use_char_ngrams=False, noise=0.5,
                          context_limit=12, top_sharpness=0.5),
    "gpt-3.5": LLMProfile("gpt-3.5", use_char_ngrams=True, noise=0.3,
                          context_limit=16, top_sharpness=0.8),
    "gpt-4": LLMProfile("gpt-4", use_char_ngrams=True, noise=0.15,
                        context_limit=24, top_sharpness=1.5),
}


class TfidfIndex:
    """A small TF-IDF vectorizer + cosine index (the RAG retriever)."""

    def __init__(self, documents: list[str], char_ngrams: bool = False):
        if not documents:
            raise ValueError("empty document collection")
        self.documents = documents
        self.char_ngrams = char_ngrams
        tokenized = [self._features(d) for d in documents]
        df: Counter[str] = Counter()
        for feats in tokenized:
            df.update(set(feats))
        n_docs = len(documents)
        self.idf = {t: np.log((1 + n_docs) / (1 + c)) + 1.0 for t, c in df.items()}
        self.vocab = {t: i for i, t in enumerate(sorted(self.idf))}
        self.matrix = np.zeros((n_docs, len(self.vocab)))
        for row, feats in enumerate(tokenized):
            self._fill(self.matrix[row], feats)
        norms = np.linalg.norm(self.matrix, axis=1, keepdims=True)
        self.matrix /= np.maximum(norms, 1e-12)

    def _features(self, text: str) -> list[str]:
        words = text.lower().split()
        feats = list(words)
        if self.char_ngrams:
            blob = " ".join(words)
            feats.extend(blob[i:i + 3] for i in range(len(blob) - 2))
        return feats

    def _fill(self, row: np.ndarray, feats: list[str]) -> None:
        counts = Counter(feats)
        for term, count in counts.items():
            idx = self.vocab.get(term)
            if idx is not None:
                row[idx] = count * self.idf[term]

    def vector(self, text: str) -> np.ndarray:
        row = np.zeros(len(self.vocab))
        self._fill(row, self._features(text))
        norm = np.linalg.norm(row)
        return row / norm if norm > 0 else row

    def scores(self, query: str) -> np.ndarray:
        return self.matrix @ self.vector(query)

    def retrieve(self, query: str, k: int) -> list[int]:
        scores = self.scores(query)
        return [int(i) for i in np.argsort(-scores, kind="stable")[:k]]


class SimulatedLLM:
    """Rank candidates for a query with profile-calibrated quality."""

    def __init__(self, profile: str | LLMProfile, seed: int = 0,
                 use_rag: bool = False, rag_candidates: int = 40):
        if isinstance(profile, str):
            if profile not in LLM_PROFILES:
                raise KeyError(f"unknown LLM {profile!r}; "
                               f"options: {sorted(LLM_PROFILES)}")
            profile = LLM_PROFILES[profile]
        self.profile = profile
        self.use_rag = use_rag
        self.rag_candidates = rag_candidates
        self.rng = np.random.default_rng(seed)

    @property
    def name(self) -> str:
        suffix = "+RAG" if self.use_rag else ""
        return self.profile.name + suffix

    def rank(self, query: str, candidates: list[str]) -> list[int]:
        """Indices of ``candidates`` in the simulated model's ranking."""
        index = TfidfIndex(candidates, char_ngrams=self.profile.use_char_ngrams)
        scores = index.scores(query)

        if self.use_rag:
            visible = set(index.retrieve(query, self.rag_candidates))
        else:
            # Without RAG the model reads only what fits in its context;
            # the paper could "only afford samples" for plain GPT models.
            limit = min(self.profile.context_limit, len(candidates))
            visible = set(self.rng.choice(len(candidates), size=limit,
                                          replace=False).tolist())

        noise = self.rng.normal(0.0, self.profile.noise * 0.1, size=len(scores))
        noisy = scores + noise
        # Strong models almost never misplace the single best match.
        best = int(np.argmax(scores))
        if best in visible:
            noisy[best] += self.profile.top_sharpness * max(scores[best], 0.1)

        order = sorted(
            range(len(candidates)),
            key=lambda i: (-(i in visible), -noisy[i], i),
        )
        return order


# ----------------------------------------------------------------------
# Task evaluation through ranking (no embeddings involved)
# ----------------------------------------------------------------------
def llm_column_clustering(corpus, llm: SimulatedLLM, k: int = 20,
                          max_queries: int | None = 30,
                          seed: int = 0):
    """CC via LLM ranking of serialized columns (Table 14 protocol)."""
    from ..eval.tasks import TaskResult, _sample, collect_columns
    from .adapters import serialize_column

    refs = collect_columns(corpus)
    texts = [serialize_column(corpus[r.table_index], r.column) for r in refs]
    concepts = [r.concept for r in refs]
    counts = Counter(concepts)
    relevance, totals = [], []
    for q in _sample(len(refs), max_queries, seed):
        others = [i for i in range(len(texts)) if i != q]
        order = llm.rank(texts[q], [texts[i] for i in others])
        ranked = [others[i] for i in order[:k]]
        relevance.append([concepts[i] == concepts[q] for i in ranked])
        totals.append(counts[concepts[q]] - 1)
    return TaskResult.from_relevance(relevance, totals, k)


def llm_table_clustering(corpus, llm: SimulatedLLM, k: int = 20,
                         seed: int = 0):
    """TC via LLM ranking against per-topic example tables."""
    from ..eval.tasks import TaskResult
    from .adapters import serialize_table

    texts = [serialize_table(t) for t in corpus]
    topics = [t.topic for t in corpus]
    rng = np.random.default_rng(seed)
    relevance, totals = [], []
    for topic in sorted({t for t in topics if t}):
        members = [i for i, t in enumerate(topics) if t == topic]
        if len(members) < 2:
            continue
        example = int(rng.choice(members))
        others = [i for i in range(len(texts)) if i != example]
        order = llm.rank(texts[example], [texts[i] for i in others])
        ranked = [others[i] for i in order[:k]]
        relevance.append([topics[i] == topic for i in ranked])
        totals.append(len(members) - 1)
    return TaskResult.from_relevance(relevance, totals, k)
