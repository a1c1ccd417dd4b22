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
    rows = np.nonzero(targets != ignore_index)[0]
    if rows.size == 0:
        raise ValueError("all targets are ignore_index; nothing to average")
    picked = targets[rows]
    bad = (picked < 0) | (picked >= logits.shape[1])
    if bad.any():
        raise ValueError(f"target {int(picked[bad][0])} at row "
                         f"{int(rows[bad][0])} is outside [0, "
                         f"{logits.shape[1]}) and is not ignore_index "
                         f"({ignore_index})")
    # Log-softmax is row-wise: only the rows that carry a target are
    # normalized, and the others get no gradient either way.
    log_probs = logits[rows].log_softmax(axis=-1)
    return -log_probs[np.arange(rows.size), picked].sum() * (1.0 / rows.size)


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
    pred = logits.data[keep].argmax(axis=-1)
    return float((pred == targets[keep]).mean())
