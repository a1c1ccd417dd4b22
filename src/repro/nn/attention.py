"""Multi-head self-attention with support for binary visibility masks.

The paper's equation (1) writes ``TabBiNAttention(Q, K, V) =
Attention(Q, K, V) · M`` where ``M`` is the visibility matrix.  As in
TUTA and standard masked transformers, the mask is applied to the
attention *logits* (scores set to -inf where ``M_ij = 0``) so the softmax
renormalizes over visible tokens only; multiplying probabilities after
softmax would leave rows unnormalized.  The visibility matrix itself is
built in :mod:`repro.core.visibility`.
"""

from __future__ import annotations

import numpy as np

from .layers import Dropout, Linear, Module
from .tensor import Tensor

_NEG_INF = -1e9


def pad_batch(items: list, fill=0) -> tuple[np.ndarray, np.ndarray]:
    """Pad arrays along their first axis with ``fill`` into one batch;
    returns ``(batch, valid)``, ``valid`` ``(B, n)`` marking real positions."""
    items = [np.asarray(item) for item in items]
    n = max(len(item) for item in items)
    batch = np.full((len(items), n) + items[0].shape[1:], fill,
                    dtype=np.result_type(*{item.dtype for item in items}))
    valid = np.zeros((len(items), n), dtype=bool)
    for i, item in enumerate(items):
        batch[i, : len(item)] = item
        valid[i, : len(item)] = True
    return batch, valid


def full_attention_mask(valid: np.ndarray) -> np.ndarray:
    """Full attention among real tokens; pads see only themselves."""
    mask = (valid[:, None, :] & valid[:, :, None]).astype(np.uint8)
    idx = np.arange(valid.shape[1])
    mask[:, idx, idx] = 1
    return mask


class MultiHeadSelfAttention(Module):
    """Standard scaled dot-product multi-head self-attention.

    Parameters
    ----------
    hidden:
        Model width; must be divisible by ``num_heads``.
    num_heads:
        Number of attention heads.
    dropout:
        Dropout applied to attention probabilities during training.
    """

    def __init__(self, hidden: int, num_heads: int, dropout: float = 0.0,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if hidden % num_heads != 0:
            raise ValueError(f"hidden ({hidden}) not divisible by heads ({num_heads})")
        rng = rng or np.random.default_rng(0)
        self.hidden = hidden
        self.num_heads = num_heads
        self.head_dim = hidden // num_heads
        self.q_proj = Linear(hidden, hidden, rng=rng)
        self.k_proj = Linear(hidden, hidden, rng=rng)
        self.v_proj = Linear(hidden, hidden, rng=rng)
        self.out_proj = Linear(hidden, hidden, rng=rng)
        self.attn_dropout = Dropout(dropout, rng=rng)

    def _split_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        # (B, S, H) -> (B, heads, S, head_dim)
        return x.reshape(batch, seq, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Attend within each sequence.

        Parameters
        ----------
        x:
            Input of shape ``(batch, seq, hidden)``.
        mask:
            Optional binary visibility matrix, shape ``(seq, seq)`` or
            ``(batch, seq, seq)``; entry 1 means *j is visible to i*.
        """
        if x.ndim != 3:
            raise ValueError(f"expected (batch, seq, hidden) input, got {x.shape}")
        batch, seq, _ = x.shape

        q = self._split_heads(self.q_proj(x), batch, seq)
        k = self._split_heads(self.k_proj(x), batch, seq)
        v = self._split_heads(self.v_proj(x), batch, seq)

        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(self.head_dim))
        if mask is not None:
            blocked = self._blocked(mask, batch, seq)
            scores = scores.masked_fill(blocked, _NEG_INF)
        probs = scores.softmax(axis=-1)
        probs = self.attn_dropout(probs)

        context = probs @ v  # (B, heads, S, head_dim)
        merged = context.transpose(0, 2, 1, 3).reshape(batch, seq, self.hidden)
        return self.out_proj(merged)

    def _blocked(self, mask: np.ndarray, batch: int, seq: int) -> np.ndarray:
        """Expand a visibility matrix to a (B, heads, S, S) blocked mask."""
        mask = np.asarray(mask)
        if mask.shape == (seq, seq):
            mask = np.broadcast_to(mask, (batch, seq, seq))
        elif mask.shape != (batch, seq, seq):
            raise ValueError(
                f"mask shape {mask.shape} incompatible with batch={batch}, seq={seq}"
            )
        blocked = mask == 0
        if blocked.all(axis=-1).any():
            raise ValueError("visibility matrix has a row with no visible token")
        return np.broadcast_to(blocked[:, None, :, :], (batch, self.num_heads, seq, seq))
