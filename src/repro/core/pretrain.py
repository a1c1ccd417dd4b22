"""Self-supervised pre-training: Masked Language Model + Cell-level Cloze.

Section 3.3: "We use the Masked Language modeling and Cell-level cloze as
our training objectives".  MLM masks 15% of the (non-structural) tokens
with the BERT 80/10/10 recipe; CLC masks *whole cells* — every token of a
sampled cell is replaced by ``[MASK]`` and must be recovered, forcing the
model to reconstruct cell content purely from its structural 2-D context
(coordinates, neighboring rows/columns, metadata).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..nn import IGNORE_INDEX, accuracy, cross_entropy, fit, sampled_batches
from ..text.vocab import Vocabulary
from .config import TabBiNConfig
from .embedding_layer import TabBiNEmbedding
from .model import TabBiNModel
from .serialize import EncodedSequence


@dataclass
class PretrainStats:
    """Loss/accuracy trace of one pre-training run."""

    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)
    steps: int = 0

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")

    def improved(self) -> bool:
        """Whether the smoothed loss went down over the run."""
        if len(self.losses) < 4:
            return False
        k = max(len(self.losses) // 4, 1)
        head = float(np.mean(self.losses[:k]))
        tail = float(np.mean(self.losses[-k:]))
        return tail < head


class TabBiNPretrainer:
    """Drives MLM + CLC pre-training of one TabBiN segment model."""

    def __init__(self, model: TabBiNModel, vocab: Vocabulary,
                 config: TabBiNConfig | None = None,
                 seed: int = 0):
        self.model = model
        self.vocab = vocab
        self.config = config or model.config
        self.rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # Masking
    # ------------------------------------------------------------------
    def mask_batch(self, sequences: list[EncodedSequence]
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Apply MLM + CLC masking to a padded batch.

        Returns ``(masked_token_ids, labels)``, both ``(B, n)``; labels
        are ``IGNORE_INDEX`` except at positions the model must recover.
        """
        arrays = TabBiNEmbedding.batch_arrays(sequences, self.vocab.pad_id)
        token_ids = arrays[0].copy()
        valid = arrays[6]
        labels = np.full_like(token_ids, IGNORE_INDEX)
        special = sorted(self.vocab.special_ids() - {self.vocab.val_id})

        for b, seq in enumerate(sequences):
            eligible = ~np.isin(seq.token_ids, special)
            if not eligible.any():
                continue
            # Views of this sequence's row: writes land in the batch.
            row, target = token_ids[b, : len(seq)], labels[b, : len(seq)]

            # --- Cell-level Cloze: mask whole cells --------------------
            clc = np.zeros(len(seq), dtype=bool)
            n_cells = len(seq.cell_refs)
            if n_cells > 1:
                chosen = np.nonzero(
                    self.rng.random(n_cells) < self.config.clc_probability
                )[0]
                clc = np.isin(seq.cell_index, chosen)
            target[clc] = row[clc]
            row[clc] = self.vocab.mask_id

            # --- MLM over the remaining eligible tokens ----------------
            remaining = np.nonzero(eligible & ~clc)[0]
            if remaining.size == 0:
                continue
            picked = remaining[
                self.rng.random(remaining.size) < self.config.mlm_probability
            ]
            if picked.size == 0:
                picked = remaining[self.rng.integers(remaining.size, size=1)]
            for pos in picked:
                target[pos] = row[pos]
                roll = self.rng.random()
                if roll < 0.8:
                    row[pos] = self.vocab.mask_id
                elif roll < 0.9:
                    row[pos] = int(self.rng.integers(len(self.vocab)))
                # else: keep the original token.
        labels[~valid] = IGNORE_INDEX
        return token_ids, labels

    # ------------------------------------------------------------------
    # Training loop
    # ------------------------------------------------------------------
    def train(self, sequences: list[EncodedSequence], steps: int,
              batch_size: int | None = None,
              lr: float | None = None) -> PretrainStats:
        """Run ``steps`` optimizer updates over randomly sampled batches;
        a batch that draws no target is skipped without a step."""
        if not sequences:
            raise ValueError("no training sequences")
        stats = PretrainStats()

        def loss_of(batch):
            masked, labels = self.mask_batch(batch)
            if (labels == IGNORE_INDEX).all():
                return None
            hidden, _valid = self.model(batch, token_ids_override=masked)
            logits = self.model.mlm_logits(hidden).reshape(-1, self.config.vocab_size)
            labels = labels.reshape(-1)
            stats.accuracies.append(accuracy(logits, labels))
            return cross_entropy(logits, labels)

        batches = sampled_batches(sequences, steps,
                                  batch_size or self.config.batch_size, self.rng)
        stats.losses = fit(self.model, batches, loss_of,
                           lr if lr is not None else self.config.learning_rate,
                           schedule_steps=steps, clip=1.0)
        stats.steps = len(stats.losses)
        return stats
