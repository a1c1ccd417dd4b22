"""TabBiN's entity-classification head for the DITTO comparison.

Section 4 ("DITTO"): "we added a linear layer followed by softmax layer
on top of our TabBiN transformer layers, and an ensemble, so TabBiN can
also perform binary classification."  Pair features come from the frozen
TabBiN column model — ``[a, b, |a-b|, a*b]`` of the two entity
embeddings — and an ensemble of independently initialized heads votes by
averaged softmax.
"""

from __future__ import annotations

import numpy as np

from ..datasets.magellan import EntityPair
from ..eval.metrics import f1_score
from ..nn import Linear, Tensor, cross_entropy, fit
from .embedder import TabBiNEmbedder


class TabBiNMatcher:
    """Binary entity-match classifier over frozen TabBiN embeddings."""

    def __init__(self, embedder: TabBiNEmbedder, ensemble: int = 3,
                 seed: int = 0):
        if ensemble < 1:
            raise ValueError("ensemble size must be >= 1")
        self.embedder = embedder
        self.ensemble = ensemble
        self.seed = seed
        self._heads: list[Linear] = []
        self._feature_cache: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    def _embed(self, text: str) -> np.ndarray:
        hit = self._feature_cache.get(text)
        if hit is None:
            hit = self.embedder.entity_embedding(text)
            self._feature_cache[text] = hit
        return hit

    def pair_features(self, pair: EntityPair) -> np.ndarray:
        a, b = self._embed(pair.left), self._embed(pair.right)
        return np.concatenate([a, b, np.abs(a - b), a * b])

    def _feature_matrix(self, pairs: list[EntityPair]) -> np.ndarray:
        return np.stack([self.pair_features(p) for p in pairs])

    # ------------------------------------------------------------------
    def fit(self, pairs: list[EntityPair], epochs: int = 60,
            lr: float = 5e-3) -> list[float]:
        x = Tensor(self._feature_matrix(pairs))
        labels = np.array([p.label for p in pairs], dtype=np.int64)
        self._heads = []
        losses: list[float] = []
        for member in range(self.ensemble):
            head = Linear(x.shape[1], 2, rng=np.random.default_rng(self.seed + member))
            losses += fit(head, range(epochs),
                          lambda _epoch: cross_entropy(head(x), labels), lr)
            self._heads.append(head)
        return losses

    def predict_proba(self, pairs: list[EntityPair]) -> np.ndarray:
        if not self._heads:
            raise RuntimeError("fit() must be called before predict")
        features = Tensor(self._feature_matrix(pairs))
        votes = [head(features).softmax(axis=-1).data for head in self._heads]
        return np.mean(votes, axis=0)

    def predict(self, pairs: list[EntityPair]) -> list[int]:
        return [int(i) for i in self.predict_proba(pairs).argmax(axis=-1)]

    def evaluate_f1(self, pairs: list[EntityPair]) -> float:
        return f1_score(self.predict(pairs), [p.label for p in pairs])
