"""Neural substrate: numpy autograd, transformer, GRU/CNN, optimizers.

The execution environment has no deep-learning framework, so the paper's
entire model stack is built on this package.  Public surface:

- :class:`~repro.nn.tensor.Tensor` and free functions (``concatenate``,
  ``stack``, ``embedding_lookup``, ``where``, ``zeros`` ...), plus the
  :func:`no_grad` context
- layers: :class:`Module` (with :meth:`Module.inference`),
  :class:`Linear`, :class:`Embedding`, :class:`LayerNorm`,
  :class:`Dropout`, :class:`Sequential`
- :class:`MultiHeadSelfAttention` with visibility-mask support
- :class:`TransformerEncoder` / :class:`TransformerEncoderLayer`
- :class:`GRU` / :class:`BiGRU`, :class:`Conv1d` for metadata classifiers
- optimizers: :class:`SGD`, :class:`Adam`, :class:`AdamW`,
  :class:`LinearWarmupSchedule`, :func:`clip_grad_norm`
- losses: :func:`cross_entropy`, :func:`binary_cross_entropy_with_logits`
- checkpoints: :func:`save_checkpoint`, :func:`load_checkpoint`
"""

from .attention import MultiHeadSelfAttention
from .cnn import Conv1d, GlobalAvgPool1d, GlobalMaxPool1d
from .layers import (
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    ModuleList,
    Parameter,
    Sequential,
)
from .losses import (
    IGNORE_INDEX,
    accuracy,
    binary_cross_entropy_with_logits,
    cross_entropy,
    mse,
)
from .optim import SGD, Adam, AdamW, LinearWarmupSchedule, Optimizer, clip_grad_norm
from .rnn import GRU, BiGRU, GRUCell
from .serialize import load_checkpoint, save_checkpoint
from .tensor import (
    Tensor,
    concatenate,
    embedding_lookup,
    no_grad,
    ones,
    randn,
    stack,
    tensor,
    where,
    zeros,
)
from .transformer import FeedForward, TransformerEncoder, TransformerEncoderLayer

__all__ = [
    "Tensor", "tensor", "zeros", "ones", "randn", "concatenate", "stack",
    "embedding_lookup", "where", "no_grad",
    "Module", "Parameter", "ModuleList", "Sequential", "Linear", "Embedding",
    "LayerNorm", "Dropout",
    "MultiHeadSelfAttention", "FeedForward", "TransformerEncoder",
    "TransformerEncoderLayer",
    "GRUCell", "GRU", "BiGRU", "Conv1d", "GlobalMaxPool1d", "GlobalAvgPool1d",
    "Optimizer", "SGD", "Adam", "AdamW", "LinearWarmupSchedule", "clip_grad_norm",
    "IGNORE_INDEX", "cross_entropy", "binary_cross_entropy_with_logits", "mse",
    "accuracy",
    "save_checkpoint", "load_checkpoint",
]
