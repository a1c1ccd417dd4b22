"""TabBiN core: the paper's primary contribution.

Public surface:

- :class:`TabBiNConfig` — hyperparameters, the CPU-sized presets and
  the four ablation switches.
- :class:`TabBiNSerializer` / :class:`EncodedSequence` — table → token
  sequences with the six per-token feature streams.
- :func:`build_visibility` — the metadata-aware attention mask.
- :class:`TabBiNEmbedding` — the six-component embedding layer.
- :class:`TabBiNModel` — embedding layer + masked transformer encoder.
- :class:`TabBiNPretrainer` — MLM + Cell-level-Cloze pre-training.
- :class:`TabBiNEmbedder` — end-user API over the four segment models.
- composite embeddings for numbers and ranges (Figure 4).
"""

from .composite import numeric_composite, range_composite
from .config import SEGMENTS, TabBiNConfig
from .embedder import TabBiNEmbedder, corpus_texts
from .embedding_layer import TabBiNEmbedding
from .model import MLMHead, TabBiNModel
from .numeric_features import NULL_FEATURES, numeric_features
from .pretrain import PretrainStats, TabBiNPretrainer
from .serialize import CellRef, EncodedSequence, TabBiNSerializer
from .visibility import build_visibility, full_visibility, visibility_for

__all__ = [
    "TabBiNConfig", "SEGMENTS",
    "TabBiNSerializer", "EncodedSequence", "CellRef",
    "build_visibility", "full_visibility", "visibility_for",
    "TabBiNEmbedding", "TabBiNModel", "MLMHead",
    "TabBiNPretrainer", "PretrainStats",
    "TabBiNEmbedder", "corpus_texts",
    "numeric_features", "NULL_FEATURES",
    "numeric_composite", "range_composite",
]
