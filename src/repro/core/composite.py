"""Composite embeddings for values with units and ranges (Section 3.4).

Figure 4(a): a numerical attribute's composite embedding concatenates the
embeddings of the attribute name, the value, and the unit — "OS" =
"20.3" ⊕ "months" keeps the meaning of the number together with its
unit.  Figure 4(b): a range concatenates attribute ⊕ unit ⊕ range start
⊕ range end ("Age", "year", "20", "30").
"""

from __future__ import annotations

import numpy as np

from .embedder import TabBiNEmbedder


def numeric_composite(embedder: TabBiNEmbedder, attribute: str,
                      value: float, unit: str | None) -> np.ndarray:
    """CE for a numerical attribute (Figure 4a): attr ⊕ value ⊕ unit."""
    return np.concatenate([
        embedder.entity_embedding(attribute),
        embedder.entity_embedding(_number_text(value)),
        embedder.entity_embedding(unit or ""),
    ])


def range_composite(embedder: TabBiNEmbedder, attribute: str,
                    start: float, end: float, unit: str | None) -> np.ndarray:
    """CE for a range attribute (Figure 4b): attr ⊕ unit ⊕ start ⊕ end."""
    return np.concatenate([
        embedder.entity_embedding(attribute),
        embedder.entity_embedding(unit or ""),
        embedder.entity_embedding(_number_text(start)),
        embedder.entity_embedding(_number_text(end)),
    ])


def _number_text(x: float) -> str:
    if float(x).is_integer():
        return str(int(x))
    return f"{x:.10g}"
