"""Retrieval substrate: batched exact cosine top-k (the CC/TC/EC
ranking) and the LSH index that blocks serving queries."""

from .lsh import CosineLSH, merge_ranked
from .quantized import (OVERFETCH, MARGIN, approx_scores, quantize_rows,
                        shortlist_size, tie_inclusive_cut)
from .similarity import cosine_similarity, normalize_rows, top_k

__all__ = [
    "cosine_similarity", "normalize_rows", "top_k",
    "CosineLSH", "merge_ranked",
    "OVERFETCH", "MARGIN", "quantize_rows", "approx_scores",
    "shortlist_size", "tie_inclusive_cut",
]
