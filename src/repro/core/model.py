"""The TabBiN encoder: embedding layer + metadata-aware masked attention.

One :class:`TabBiNModel` instance corresponds to one of the paper's four
pre-trained variants (data rows, data columns, HMD, VMD) — the variant is
determined by which segment's sequences it is fed, not by its
architecture (Section 3.3).
"""

from __future__ import annotations

import numpy as np

from ..nn import (
    LayerNorm,
    Linear,
    Module,
    Tensor,
    TransformerEncoder,
)
from .config import TabBiNConfig
from .embedding_layer import TabBiNEmbedding
from .serialize import EncodedSequence
from .visibility import visibility_for


class MLMHead(Module):
    """BERT-style masked-token prediction head."""

    def __init__(self, hidden: int, vocab_size: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.transform = Linear(hidden, hidden, rng=rng)
        self.norm = LayerNorm(hidden)
        self.decoder = Linear(hidden, vocab_size, rng=rng)

    def forward(self, hidden_states: Tensor) -> Tensor:
        return self.decoder(self.norm(self.transform(hidden_states).gelu()))


class TabBiNModel(Module):
    """Encoder producing contextual token vectors for one segment."""

    def __init__(self, config: TabBiNConfig, pad_id: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.config = config
        self.pad_id = pad_id
        self.embedding = TabBiNEmbedding(config, rng=rng)
        self.encoder = TransformerEncoder(
            num_layers=config.num_layers, hidden=config.hidden,
            num_heads=config.num_heads, intermediate=config.intermediate,
            dropout=config.dropout, rng=rng,
        )
        self.mlm_head = MLMHead(config.hidden, config.vocab_size, rng=rng)

    # ------------------------------------------------------------------
    def forward(self, sequences: list[EncodedSequence],
                token_ids_override: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
        """Encode a batch of sequences.

        Returns ``(hidden_states, valid)``: hidden states of shape
        ``(B, n, H)`` and a boolean mask marking real (non-pad) tokens.
        ``token_ids_override`` substitutes the token-id stream (used by
        MLM/CLC pre-training after masking) while keeping every other
        feature stream intact.
        """
        arrays = TabBiNEmbedding.batch_arrays(sequences, self.pad_id)
        token_ids, numeric, cell_pos, coords, type_ids, features, valid = arrays
        if token_ids_override is not None:
            if token_ids_override.shape != token_ids.shape:
                raise ValueError("token_ids_override shape mismatch")
            token_ids = token_ids_override
        embedded = self.embedding(token_ids, numeric, cell_pos, coords,
                                  type_ids, features)
        mask = self._batch_mask(sequences, valid)
        hidden = self.encoder(embedded, mask)
        return hidden, valid

    def mlm_logits(self, hidden: Tensor) -> Tensor:
        return self.mlm_head(hidden)

    # ------------------------------------------------------------------
    def _batch_mask(self, sequences: list[EncodedSequence],
                    valid: np.ndarray) -> np.ndarray:
        """Stack per-sequence visibility matrices into a padded batch.

        Pad tokens attend only to themselves and nothing attends to them,
        so they contribute nothing to real positions.
        """
        B, n = valid.shape
        mask = np.zeros((B, n, n), dtype=np.uint8)
        for b, seq in enumerate(sequences):
            k = len(seq)
            mask[b, :k, :k] = visibility_for(seq, self.config.use_visibility)
            if k < n:
                idx = np.arange(k, n)
                mask[b, idx, idx] = 1
        return mask

    # ------------------------------------------------------------------
    def encode_pooled(self, sequences: list[EncodedSequence]) -> list[dict]:
        """Run the encoder and mean-pool token vectors per cell ref.

        Returns, per sequence, a dict mapping the sequence's
        ``cell_refs`` index to its pooled vector (numpy, shape ``(H,)``).
        Used at inference time to derive cell / column / metadata / table
        embeddings.  One call is one forward padded to the longest
        sequence — corpus-scale callers should chunk through
        :class:`~repro.index.store.EmbeddingStore`, which batches by
        length so padding (and the ``(B, n, n)`` masks) stay small.
        """
        with self.inference():
            hidden, _valid = self.forward(sequences)
        states = hidden.data
        out: list[dict] = []
        for b, seq in enumerate(sequences):
            pooled: dict[int, np.ndarray] = {}
            for idx in range(len(seq.cell_refs)):
                positions = seq.tokens_of_cell(idx)
                if positions.size:
                    pooled[idx] = states[b, positions].mean(axis=0)
            out.append(pooled)
        return out
