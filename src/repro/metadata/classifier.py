"""Binary metadata classifiers: bi-GRU and CNN architectures.

Section 2.3: "We designed and trained our own binary metadata
classifiers based on Deep-learning bi-GRU and CNN architectures
specifically for highly accurate labeling of multi-layer metadata — both
horizontal and vertical."  A classifier consumes one line (row or
column) of a raw grid as a sequence of per-cell feature vectors and
outputs P(metadata).
"""

from __future__ import annotations

import numpy as np

from ..nn import (
    BiGRU,
    Conv1d,
    GlobalMaxPool1d,
    Linear,
    Module,
    Tensor,
    binary_cross_entropy_with_logits,
    epoch_batches,
    fit,
    pad_batch,
)
from .features import NUM_CELL_FEATURES, line_features


class BiGRUClassifier(Module):
    """bi-GRU over the cell sequence, mean-pooled, linear logit."""

    def __init__(self, feature_dim: int = NUM_CELL_FEATURES, hidden: int = 16,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.gru = BiGRU(feature_dim, hidden, rng=rng)
        self.head = Linear(2 * hidden, 1, rng=rng)

    def forward(self, lines: Tensor) -> Tensor:
        """Logits for a padded batch ``(B, seq, F)``; shape ``(B,)``."""
        pooled = self.gru.pooled(lines)
        return self.head(pooled).reshape(-1)


class CNNClassifier(Module):
    """1-D convolution over the cell sequence, max-pooled, linear logit."""

    def __init__(self, feature_dim: int = NUM_CELL_FEATURES, hidden: int = 16,
                 kernel_size: int = 3, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.conv = Conv1d(feature_dim, hidden, kernel_size, rng=rng)
        self.pool = GlobalMaxPool1d()
        self.head = Linear(hidden, 1, rng=rng)

    def forward(self, lines: Tensor) -> Tensor:
        pooled = self.pool(self.conv(lines).relu())
        return self.head(pooled).reshape(-1)


class MetadataClassifier:
    """Training/inference wrapper around either architecture."""

    def __init__(self, architecture: str = "bigru", hidden: int = 16,
                 seed: int = 0):
        rng = np.random.default_rng(seed)
        if architecture == "bigru":
            self.model: Module = BiGRUClassifier(hidden=hidden, rng=rng)
        elif architecture == "cnn":
            self.model = CNNClassifier(hidden=hidden, rng=rng)
        else:
            raise ValueError("architecture must be 'bigru' or 'cnn'")
        self.architecture = architecture
        self.seed = seed

    # ------------------------------------------------------------------
    def fit(self, lines: list[np.ndarray], labels: list[int],
            epochs: int = 30, batch_size: int = 16,
            lr: float = 1e-2) -> list[float]:
        if len(lines) != len(labels) or not lines:
            raise ValueError("lines and labels must align and be non-empty")

        def loss_of(chunk):
            batch = Tensor(pad_batch([lines[i] for i in chunk])[0])
            target = np.array([labels[i] for i in chunk], dtype=float)
            return binary_cross_entropy_with_logits(self.model(batch), target)

        batches = epoch_batches(len(lines), epochs, batch_size,
                                np.random.default_rng(self.seed))
        return fit(self.model, batches, loss_of, lr)

    def predict_proba(self, lines: list[np.ndarray]) -> np.ndarray:
        with self.model.inference():
            logits = self.model(Tensor(pad_batch(lines)[0]))
        return 1.0 / (1.0 + np.exp(-logits.data))

    def predict(self, lines: list[np.ndarray],
                threshold: float = 0.5) -> list[int]:
        return [int(p >= threshold) for p in self.predict_proba(lines)]

    def accuracy(self, lines: list[np.ndarray], labels: list[int]) -> float:
        predictions = self.predict(lines)
        return float(np.mean([p == l for p, l in zip(predictions, labels)]))

    # ------------------------------------------------------------------
    def label_grid(self, grid: list[list[str]],
                   max_header_rows: int = 3,
                   max_header_cols: int = 2) -> tuple[int, int]:
        """Predict (n_header_rows, n_header_cols) for a raw grid.

        Scans leading rows/columns until the classifier stops predicting
        metadata — the labeling step that precedes parsing when corpora
        arrive with "unlabeled or noisy metadata".
        """
        n_header_rows = 0
        for row in grid[:max_header_rows]:
            if self.predict([line_features(row)])[0]:
                n_header_rows += 1
            else:
                break
        n_header_cols = 0
        width = len(grid[0]) if grid else 0
        for j in range(min(max_header_cols, width)):
            column = [row[j] for row in grid[n_header_rows:]]
            if column and self.predict([line_features(column)])[0]:
                n_header_cols += 1
            else:
                break
        if n_header_rows == 0:
            n_header_rows = 1  # a table always has at least one header row
        return n_header_rows, n_header_cols
