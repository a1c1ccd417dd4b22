"""Word2Vec skip-gram with negative sampling, from scratch on numpy.

The paper trains classic Word2Vec [58] on table tuples (dim 300, window
3, min count 1) as the non-contextual baseline, and sweeps the embedding
dimensionality in Table 3.  This implementation follows Mikolov et al.'s
SGNS with a unigram^0.75 negative-sampling table and linear
learning-rate decay.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

from ..text.tokenizer import pretokenize


class Word2Vec:
    """Skip-gram negative-sampling embeddings."""

    def __init__(self, dim: int = 100, window: int = 3, negative: int = 5,
                 min_count: int = 1, seed: int = 0):
        if dim <= 0 or window <= 0 or negative <= 0:
            raise ValueError("dim, window and negative must be positive")
        self.dim = dim
        self.window = window
        self.negative = negative
        self.min_count = min_count
        self.seed = seed
        self.vocab: dict[str, int] = {}
        self.w_in: np.ndarray | None = None
        self.w_out: np.ndarray | None = None
        self._neg_table: np.ndarray | None = None
        self.train_seconds: float = 0.0

    # ------------------------------------------------------------------
    def build_vocab(self, sentences: list[list[str]]) -> None:
        counts = Counter(tok for sent in sentences for tok in sent)
        kept = sorted(w for w, c in counts.items() if c >= self.min_count)
        self.vocab = {w: i for i, w in enumerate(kept)}
        rng = np.random.default_rng(self.seed)
        scale = 0.5 / self.dim
        self.w_in = rng.uniform(-scale, scale, (len(kept), self.dim))
        self.w_out = np.zeros((len(kept), self.dim))
        freqs = np.array([counts[w] for w in kept], dtype=float) ** 0.75
        probs = freqs / freqs.sum()
        # Pre-drawn alias-free sampling table (classic word2vec style).
        table_size = max(len(kept) * 20, 1000)
        self._neg_table = rng.choice(len(kept), size=table_size, p=probs)

    def train(self, texts: list[str], epochs: int = 3,
              lr: float = 0.025) -> "Word2Vec":
        """Tokenize ``texts`` and run SGNS; records wall-clock train time
        (reported in Table 3)."""
        sentences = [pretokenize(t) for t in texts if t]
        sentences = [s for s in sentences if len(s) >= 2]
        if not sentences:
            raise ValueError("no trainable sentences")
        self.build_vocab(sentences)
        encoded = [
            np.array([self.vocab[t] for t in sent if t in self.vocab],
                     dtype=np.int64)
            for sent in sentences
        ]
        encoded = [e for e in encoded if len(e) >= 2]
        rng = np.random.default_rng(self.seed + 1)
        start = time.perf_counter()
        total_steps = max(sum(len(e) for e in encoded) * epochs, 1)
        step = 0
        for _epoch in range(epochs):
            for sent in encoded:
                for center_pos, center in enumerate(sent):
                    step += 1
                    alpha = max(lr * (1.0 - step / total_steps), lr * 0.01)
                    lo = max(center_pos - self.window, 0)
                    hi = min(center_pos + self.window + 1, len(sent))
                    for ctx_pos in range(lo, hi):
                        if ctx_pos == center_pos:
                            continue
                        self._sgns_update(int(center), int(sent[ctx_pos]),
                                          alpha, rng)
        self.train_seconds = time.perf_counter() - start
        return self

    def _sgns_update(self, center: int, context: int, alpha: float,
                     rng: np.random.Generator) -> None:
        v = self.w_in[center]
        negatives = self._neg_table[
            rng.integers(len(self._neg_table), size=self.negative)
        ]
        targets = np.concatenate(([context], negatives))
        labels = np.zeros(len(targets))
        labels[0] = 1.0
        outs = self.w_out[targets]                     # (1+neg, dim)
        scores = 1.0 / (1.0 + np.exp(-outs @ v))       # sigmoid
        gradient = (scores - labels)[:, None]          # (1+neg, 1)
        grad_v = (gradient * outs).sum(axis=0)
        self.w_out[targets] -= alpha * gradient * v
        self.w_in[center] -= alpha * grad_v

    # ------------------------------------------------------------------
    def vector(self, word: str) -> np.ndarray | None:
        idx = self.vocab.get(word.lower())
        if idx is None or self.w_in is None:
            return None
        return self.w_in[idx]

    def embed_text(self, text: str) -> np.ndarray:
        """Mean vector of the known tokens (zero vector when none)."""
        vectors = [self.vector(tok) for tok in pretokenize(text)]
        vectors = [v for v in vectors if v is not None]
        if not vectors:
            return np.zeros(self.dim)
        return np.mean(vectors, axis=0)
