"""Baselines: TUTA-like, BioBERT-like, Word2Vec, DITTO-like."""

from .adapters import (
    corpus_tuples,
    make_column_embedder,
    make_entity_embedder,
    make_table_embedder,
    serialize_column,
    serialize_table,
    serialize_tuple,
)
from .biobert import BioBERTLike
from .ditto import DittoMatcher
from .text_model import TextEncoder, TextMLM
from .tuta import TutaEmbedder, TutaModel
from .word2vec import Word2Vec

__all__ = [
    "Word2Vec",
    "TextEncoder", "TextMLM", "BioBERTLike",
    "TutaModel", "TutaEmbedder",
    "DittoMatcher",
    "serialize_tuple", "serialize_column", "serialize_table",
    "corpus_tuples", "make_column_embedder", "make_table_embedder",
    "make_entity_embedder",
]
