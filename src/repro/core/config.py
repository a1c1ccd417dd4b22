"""TabBiN model configuration, including the paper's hyperparameters.

Section 3 fixes: BERT_BASE-aligned encoder (H = 768), max sequence length
256 tokens, at most I = 64 tokens per cell, at most G = 256 tuples per
table, numeric feature cardinalities M = P = F = L = 10, T = 14 semantic
types, F = 8 cell-feature bits, 50,000 pre-training steps with batch size
12 and learning rate 2e-5.

The reproduction keeps all of those knobs and adds the four ablation
switches of Section 4.6 (TabBiN_1..4).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: The four TabBiN variants (Section 3.3: "We trained 4 models - 2 for
#: data - tuples, columns; 2 for metadata - horizontal, vertical").
SEGMENTS = ("row", "column", "hmd", "vmd")


@dataclass(frozen=True)
class TabBiNConfig:
    """Hyperparameters for one TabBiN encoder."""

    # -- encoder geometry -------------------------------------------------
    hidden: int = 48          # H; must be divisible by 12 (E_num /4, E_tpos /6)
    num_layers: int = 2
    num_heads: int = 4
    intermediate: int = 192
    dropout: float = 0.1

    # -- sequence / table limits (paper values kept as defaults) -----------
    max_seq_len: int = 256    # "table sequences with no more than 256 tokens"
    max_cell_tokens: int = 64  # I = 64
    max_position: int = 256   # G = 256

    # -- embedding layer cardinalities -------------------------------------
    numeric_bins: int = 11    # M = P = F = L = 10 plus a null bucket at 0
    num_types: int = 14       # T = 14
    num_cell_features: int = 8  # F = 8 (7 unit categories + nested bit)

    # -- pre-training -------------------------------------------------------
    mlm_probability: float = 0.15
    clc_probability: float = 0.10
    learning_rate: float = 2e-5
    batch_size: int = 12
    train_steps: int = 50_000

    # -- ablation switches (Section 4.6) -------------------------------------
    use_visibility: bool = True      # TabBiN_1 removes the visibility matrix
    use_type: bool = True            # TabBiN_2 removes type inference
    use_units_nesting: bool = True   # TabBiN_3 removes E_fmt
    use_coords: bool = True          # TabBiN_4 removes bi-dimensional coords

    vocab_size: int = 0  # filled in when the tokenizer is trained

    def __post_init__(self):
        if self.hidden % 12 != 0:
            raise ValueError(
                f"hidden ({self.hidden}) must be divisible by 12: E_num "
                "concatenates 4 sub-embeddings and E_tpos concatenates 6"
            )
        if self.hidden % self.num_heads != 0:
            raise ValueError("hidden must be divisible by num_heads")

    def with_vocab(self, vocab_size: int) -> "TabBiNConfig":
        return replace(self, vocab_size=vocab_size)

    def ablate(self, component: str) -> "TabBiNConfig":
        """Return a config with one component removed.

        ``component`` is one of ``visibility`` (TabBiN_1), ``type``
        (TabBiN_2), ``units_nesting`` (TabBiN_3), ``coords`` (TabBiN_4).
        """
        flags = {
            "visibility": "use_visibility",
            "type": "use_type",
            "units_nesting": "use_units_nesting",
            "coords": "use_coords",
        }
        if component not in flags:
            raise ValueError(f"unknown ablation: {component!r}")
        return replace(self, **{flags[component]: False})

    # -- presets ---------------------------------------------------------------
    @classmethod
    def small(cls, **overrides) -> "TabBiNConfig":
        """CPU-friendly configuration used by the benchmark harness."""
        return replace(cls(hidden=48, num_layers=2, num_heads=4,
                           intermediate=192, dropout=0.1,
                           max_seq_len=128), **overrides)

    @classmethod
    def tiny(cls, **overrides) -> "TabBiNConfig":
        """Minimal configuration for unit tests."""
        return replace(cls(hidden=24, num_layers=1, num_heads=2,
                           intermediate=48, dropout=0.0,
                           max_seq_len=64, max_cell_tokens=16,
                           max_position=64), **overrides)
