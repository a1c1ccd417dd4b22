"""A plain text transformer encoder with MLM pre-training.

This is the substrate for the BioBERT-like baseline (and the DITTO-like
matcher's encoder): token + learned absolute position embeddings, full
self-attention (no table structure), and the same MLM recipe TabBiN
uses.  It is deliberately the TabBiN architecture *minus* every
structural component, which is exactly the role BioBERT plays in the
paper's comparisons.
"""

from __future__ import annotations

import numpy as np

from ..nn import (
    Dropout,
    Embedding,
    IGNORE_INDEX,
    LayerNorm,
    Module,
    Tensor,
    TransformerEncoder,
    cross_entropy,
    fit,
    full_attention_mask,
    pad_batch,
    sampled_batches,
)
from ..core.model import MLMHead
from ..text.tokenizer import WordPieceTokenizer
from ..text.vocab import Vocabulary


class TextEncoder(Module):
    """Token + position embeddings feeding a transformer encoder."""

    def __init__(self, vocab_size: int, hidden: int = 48, num_layers: int = 2,
                 num_heads: int = 4, intermediate: int = 192,
                 max_len: int = 128, dropout: float = 0.1,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.hidden = hidden
        self.max_len = max_len
        self.vocab_size = vocab_size
        self.tok = Embedding(vocab_size, hidden, rng=rng)
        self.pos = Embedding(max_len, hidden, rng=rng)
        self.norm = LayerNorm(hidden)
        self.dropout = Dropout(dropout, rng=rng)
        self.encoder = TransformerEncoder(num_layers, hidden, num_heads,
                                          intermediate, dropout, rng=rng)
        self.mlm_head = MLMHead(hidden, vocab_size, rng=rng)

    def forward(self, token_ids: np.ndarray, valid: np.ndarray) -> Tensor:
        """Encode a padded batch ``(B, n)``; ``valid`` marks real tokens."""
        B, n = token_ids.shape
        positions = np.broadcast_to(np.arange(n), (B, n))
        x = self.dropout(self.norm(self.tok(token_ids) + self.pos(positions)))
        return self.encoder(x, full_attention_mask(valid))


class TextMLM:
    """BioBERT-style text model: tokenizer + encoder + MLM training.

    Exposes ``embed_text`` so it plugs into the adapter protocol.
    """

    def __init__(self, tokenizer: WordPieceTokenizer, encoder: TextEncoder):
        self.tokenizer = tokenizer
        self.encoder = encoder
        self._cache: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    @classmethod
    def train_on_texts(cls, texts: list[str], steps: int = 150,
                       vocab_size: int = 1500, hidden: int = 48,
                       num_layers: int = 2, num_heads: int = 4,
                       max_len: int = 96, batch_size: int = 8,
                       lr: float = 3e-4, mlm_probability: float = 0.15,
                       seed: int = 0) -> "TextMLM":
        """Train a tokenizer on ``texts`` then pre-train with MLM."""
        tokenizer = WordPieceTokenizer.train(texts, vocab_size=vocab_size)
        rng = np.random.default_rng(seed)
        encoder = TextEncoder(
            vocab_size=len(tokenizer.vocab), hidden=hidden,
            num_layers=num_layers, num_heads=num_heads,
            intermediate=hidden * 4, max_len=max_len, rng=rng,
        )
        model = cls(tokenizer, encoder)
        if steps > 0:
            model.pretrain(texts, steps=steps, batch_size=batch_size, lr=lr,
                           mlm_probability=mlm_probability, seed=seed + 1)
        encoder.eval()
        return model

    def pretrain(self, texts: list[str], steps: int, batch_size: int = 8,
                 lr: float = 3e-4, mlm_probability: float = 0.15,
                 seed: int = 0) -> list[float]:
        encoded = [self._encode(t) for t in texts if t.strip()]
        encoded = [e for e in encoded if len(e) > 2]
        if not encoded:
            raise ValueError("no trainable texts")
        vocab = self.tokenizer.vocab
        rng = np.random.default_rng(seed)

        def loss_of(batch):
            token_ids, valid = pad_batch(batch, vocab.pad_id)
            masked, labels = self._mask(token_ids, valid, vocab, rng,
                                        mlm_probability)
            if (labels == IGNORE_INDEX).all():
                return None
            logits = self.encoder.mlm_head(self.encoder(masked, valid))
            return cross_entropy(logits.reshape(-1, self.encoder.vocab_size),
                                 labels.reshape(-1))

        return fit(self.encoder, sampled_batches(encoded, steps, batch_size, rng),
                   loss_of, lr, schedule_steps=steps, clip=1.0)

    # ------------------------------------------------------------------
    def _encode(self, text: str) -> np.ndarray:
        vocab = self.tokenizer.vocab
        ids = [vocab.cls_id] + self.tokenizer.encode(text)
        return np.array(ids[: self.encoder.max_len], dtype=np.int64)

    @staticmethod
    def _mask(token_ids: np.ndarray, valid: np.ndarray, vocab: Vocabulary,
              rng: np.random.Generator, probability: float
              ) -> tuple[np.ndarray, np.ndarray]:
        special = vocab.special_ids() - {vocab.val_id}
        eligible = valid & ~np.isin(token_ids, sorted(special))
        lottery = (rng.random(token_ids.shape) < probability) & eligible
        if not lottery.any():
            # Guarantee at least one target per batch.
            rows, cols = np.nonzero(eligible)
            if rows.size == 0:
                return token_ids.copy(), np.full_like(token_ids, IGNORE_INDEX)
            pick = rng.integers(rows.size)
            lottery[rows[pick], cols[pick]] = True
        labels = np.where(lottery, token_ids, IGNORE_INDEX)
        roll = rng.random(token_ids.shape)
        masked = np.where(lottery & (roll < 0.8), vocab.mask_id, token_ids)
        random_slots = lottery & (roll >= 0.8) & (roll < 0.9)
        masked[random_slots] = rng.integers(len(vocab), size=int(random_slots.sum()))
        return masked, labels

    # ------------------------------------------------------------------
    def embed_text(self, text: str) -> np.ndarray:
        """Mean-pooled contextual vector of ``text`` (cached)."""
        hit = self._cache.get(text)
        if hit is not None:
            return hit
        ids = self._encode(text)
        if len(ids) == 0:
            return np.zeros(self.encoder.hidden)
        token_ids, valid = pad_batch([ids], self.tokenizer.vocab.pad_id)
        with self.encoder.inference():
            hidden = self.encoder(token_ids, valid)
        vector = hidden.data[0, valid[0]].mean(axis=0)
        self._cache[text] = vector
        return vector
