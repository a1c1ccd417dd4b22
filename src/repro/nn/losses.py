"""Loss functions for pre-training and classification."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

IGNORE_INDEX = -100


def cross_entropy(logits: Tensor, targets: np.ndarray,
                  ignore_index: int = IGNORE_INDEX) -> Tensor:
    """Mean cross-entropy over positions whose target is not ignored.

    Parameters
    ----------
    logits:
        Shape ``(N, C)`` unnormalized scores.
    targets:
        Shape ``(N,)`` integer class ids; positions equal to
        ``ignore_index`` contribute nothing (used for unmasked MLM slots).
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2 or targets.ndim != 1 or logits.shape[0] != targets.shape[0]:
        raise ValueError(f"bad shapes: logits {logits.shape}, targets {targets.shape}")
    keep = targets != ignore_index
    count = int(keep.sum())
    if count == 0:
        raise ValueError("all targets are ignore_index; nothing to average")
    log_probs = logits.log_softmax(axis=-1)
    rows = np.nonzero(keep)[0]
    picked = log_probs[rows, targets[keep]]
    return -picked.sum() * (1.0 / count)


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Numerically stable mean BCE on raw logits.

    Uses the identity ``bce = max(x, 0) - x*y + log(1 + exp(-|x|))``.
    """
    targets = np.asarray(targets, dtype=float)
    if logits.shape != targets.shape:
        raise ValueError(f"shape mismatch: {logits.shape} vs {targets.shape}")
    x = logits
    relu_x = x.relu()
    abs_x = (x * x) ** 0.5
    loss = relu_x - x * Tensor(targets) + ((-abs_x).exp() + 1.0).log()
    return loss.mean()


def accuracy(logits: Tensor, targets: np.ndarray,
             ignore_index: int = IGNORE_INDEX) -> float:
    """Fraction of non-ignored positions predicted correctly."""
    targets = np.asarray(targets, dtype=np.int64)
    keep = targets != ignore_index
    if not keep.any():
        return 0.0
    pred = logits.data.argmax(axis=-1)
    return float((pred[keep] == targets[keep]).mean())
