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
from ..nn import Linear, Module, cross_entropy, epoch_batches, fit, pad_batch
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

    def forward(self, pairs: list[EntityPair]):
        token_ids, valid = pad_batch([self._encode_pair(p) for p in pairs],
                                     self.tokenizer.vocab.pad_id)
        hidden = self.encoder(token_ids, valid)
        return self.head(hidden[:, 0, :])  # [CLS] state

    # ------------------------------------------------------------------
    def fit(self, pairs: list[EntityPair], epochs: int = 3,
            batch_size: int = 8, lr: float = 3e-4, seed: int = 0) -> list[float]:
        def loss_of(chunk):
            batch = [pairs[i] for i in chunk]
            labels = np.array([p.label for p in batch], dtype=np.int64)
            return cross_entropy(self(batch), labels)

        batches = epoch_batches(len(pairs), epochs, batch_size,
                                np.random.default_rng(seed))
        return fit(self, batches, loss_of, lr, clip=1.0)

    def predict(self, pairs: list[EntityPair], batch_size: int = 16) -> list[int]:
        out: list[int] = []
        with self.inference():
            for start in range(0, len(pairs), batch_size):
                logits = self(pairs[start:start + batch_size])
                out.extend(int(i) for i in logits.data.argmax(axis=-1))
        return out

    def evaluate_f1(self, pairs: list[EntityPair]) -> float:
        return f1_score(self.predict(pairs), [p.label for p in pairs])
