"""Text substrate: tokenizer, vocabulary, units, semantic types."""

from .gazetteers import GAZETTEERS
from .tokenizer import WordPieceTokenizer, is_number_token, pretokenize
from .types import NUM_TYPES, TYPE_NAMES, TYPE_TO_ID, TypeInference
from .units import (
    CELL_FEATURE_ORDER,
    NUM_CELL_FEATURES,
    UNIT_CATEGORIES,
    detect_trailing_unit,
    feature_bits,
    unit_category,
)
from .vocab import CLS, MASK, PAD, SEP, SPECIAL_TOKENS, UNK, VAL, Vocabulary

__all__ = [
    "Vocabulary", "SPECIAL_TOKENS", "PAD", "UNK", "CLS", "SEP", "MASK", "VAL",
    "WordPieceTokenizer", "pretokenize", "is_number_token",
    "TypeInference", "TYPE_NAMES", "TYPE_TO_ID", "NUM_TYPES",
    "UNIT_CATEGORIES", "CELL_FEATURE_ORDER", "NUM_CELL_FEATURES",
    "unit_category", "detect_trailing_unit", "feature_bits",
    "GAZETTEERS",
]
