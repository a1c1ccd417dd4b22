"""GRU recurrent layers.

The paper trains "binary metadata classifiers based on Deep-learning
bi-GRU and CNN architectures" to label multi-layer horizontal/vertical
metadata (Section 2.3, citing [40]).  This module provides the GRU half
of that substrate.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .layers import Linear, Module
from .tensor import Tensor


class GRUCell(Module):
    """Single gated recurrent unit step.

    Uses the standard formulation:
    ``z = sigma(W_z x + U_z h)``, ``r = sigma(W_r x + U_r h)``,
    ``n = tanh(W_n x + r * U_n h)``, ``h' = (1 - z) * n + z * h``.
    """

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.x_z = Linear(input_dim, hidden_dim, rng=rng)
        self.h_z = Linear(hidden_dim, hidden_dim, bias=False, rng=rng)
        self.x_r = Linear(input_dim, hidden_dim, rng=rng)
        self.h_r = Linear(hidden_dim, hidden_dim, bias=False, rng=rng)
        self.x_n = Linear(input_dim, hidden_dim, rng=rng)
        self.h_n = Linear(hidden_dim, hidden_dim, bias=False, rng=rng)

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        z = (self.x_z(x) + self.h_z(h)).sigmoid()
        r = (self.x_r(x) + self.h_r(h)).sigmoid()
        n = (self.x_n(x) + r * self.h_n(h)).tanh()
        return (1.0 - z) * n + z * h


class GRU(Module):
    """Unrolled unidirectional GRU over a ``(batch, seq, input)`` tensor."""

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.cell = GRUCell(input_dim, hidden_dim, rng=rng)
        self.hidden_dim = hidden_dim

    def forward(self, x: Tensor, reverse: bool = False) -> Tensor:
        """Return all hidden states, shape ``(batch, seq, hidden)``."""
        if x.ndim != 3:
            raise ValueError(f"expected (batch, seq, input), got {x.shape}")
        batch, seq, _ = x.shape
        h = T.zeros((batch, self.hidden_dim))
        steps = range(seq - 1, -1, -1) if reverse else range(seq)
        outputs: list[Tensor] = [None] * seq
        for t in steps:
            h = self.cell(x[:, t, :], h)
            outputs[t] = h
        return T.stack(outputs, axis=1)


class BiGRU(Module):
    """Bidirectional GRU; concatenates forward and backward states."""

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.forward_gru = GRU(input_dim, hidden_dim, rng=rng)
        self.backward_gru = GRU(input_dim, hidden_dim, rng=rng)
        self.hidden_dim = hidden_dim

    def forward(self, x: Tensor) -> Tensor:
        """All states, shape ``(batch, seq, 2 * hidden)``."""
        fwd = self.forward_gru(x)
        bwd = self.backward_gru(x, reverse=True)
        return T.concatenate([fwd, bwd], axis=-1)

    def pooled(self, x: Tensor) -> Tensor:
        """Sequence representation: mean over time of the bi-states."""
        return self.forward(x).mean(axis=1)
