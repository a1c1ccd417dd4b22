"""The DITTO baseline: entity matching as sequence-pair classification.

DITTO [49] fine-tunes a pre-trained language model on serialized entity
pairs with a binary match/mismatch head.  Here the encoder is our
from-scratch text transformer (standing in for RoBERTa); a pair is
serialized ``[CLS] left [SEP] right`` and the ``[CLS]`` state feeds a
linear + softmax head, trained end-to-end with cross-entropy — the same
construction at reduced scale.
"""

from __future__ import annotations

import numpy as np

from ..datasets.magellan import EntityPair
from ..eval.metrics import f1_score
from ..nn import Adam, Linear, Module, clip_grad_norm, cross_entropy
from ..text.tokenizer import WordPieceTokenizer
from .text_model import TextEncoder


class DittoMatcher(Module):
    """Pair classifier: text encoder + binary head over ``[CLS]``."""

    def __init__(self, tokenizer: WordPieceTokenizer, hidden: int = 48,
                 num_layers: int = 2, num_heads: int = 4, max_len: int = 96,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.tokenizer = tokenizer
        self.encoder = TextEncoder(
            vocab_size=len(tokenizer.vocab), hidden=hidden,
            num_layers=num_layers, num_heads=num_heads,
            intermediate=hidden * 4, max_len=max_len, rng=rng,
        )
        self.head = Linear(hidden, 2, rng=rng)
        self.max_len = max_len

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, pairs: list[EntityPair], vocab_size: int = 1200,
              hidden: int = 48, seed: int = 0, **kwargs) -> "DittoMatcher":
        texts = [p.left for p in pairs] + [p.right for p in pairs]
        tokenizer = WordPieceTokenizer.train(texts, vocab_size=vocab_size)
        return cls(tokenizer, hidden=hidden,
                   rng=np.random.default_rng(seed), **kwargs)

    def _encode_pair(self, pair: EntityPair) -> np.ndarray:
        vocab = self.tokenizer.vocab
        ids = ([vocab.cls_id] + self.tokenizer.encode(pair.left)
               + [vocab.sep_id] + self.tokenizer.encode(pair.right))
        return np.array(ids[: self.max_len], dtype=np.int64)

    def _batch(self, pairs: list[EntityPair]) -> tuple[np.ndarray, np.ndarray]:
        encoded = [self._encode_pair(p) for p in pairs]
        n = max(len(e) for e in encoded)
        token_ids = np.full((len(encoded), n), self.tokenizer.vocab.pad_id,
                            dtype=np.int64)
        valid = np.zeros((len(encoded), n), dtype=bool)
        for i, ids in enumerate(encoded):
            token_ids[i, : len(ids)] = ids
            valid[i, : len(ids)] = True
        return token_ids, valid

    def forward(self, pairs: list[EntityPair]):
        token_ids, valid = self._batch(pairs)
        hidden = self.encoder(token_ids, valid)
        return self.head(hidden[:, 0, :])  # [CLS] state

    # ------------------------------------------------------------------
    def fit(self, pairs: list[EntityPair], epochs: int = 3,
            batch_size: int = 8, lr: float = 3e-4, seed: int = 0) -> list[float]:
        rng = np.random.default_rng(seed)
        optimizer = Adam(self.parameters(), lr=lr)
        losses: list[float] = []
        self.train()
        order = np.arange(len(pairs))
        for _ in range(epochs):
            rng.shuffle(order)
            for start in range(0, len(order), batch_size):
                chunk = [pairs[i] for i in order[start:start + batch_size]]
                labels = np.array([p.label for p in chunk], dtype=np.int64)
                logits = self(chunk)
                loss = cross_entropy(logits, labels)
                optimizer.zero_grad()
                loss.backward()
                clip_grad_norm(self.parameters(), 1.0)
                optimizer.step()
                losses.append(float(loss.data))
        self.eval()
        return losses

    def predict(self, pairs: list[EntityPair], batch_size: int = 16) -> list[int]:
        out: list[int] = []
        with self.inference():
            for start in range(0, len(pairs), batch_size):
                logits = self(pairs[start:start + batch_size])
                out.extend(int(i) for i in logits.data.argmax(axis=-1))
        return out

    def evaluate_f1(self, pairs: list[EntityPair]) -> float:
        predictions = self.predict(pairs)
        return f1_score(predictions, [p.label for p in pairs])
