"""Adapters: plug any text embedder into the CC/TC/EC task protocol.

The text baselines (Word2Vec, BioBERT-like) see tables as text.  These
helpers serialize tuples / columns / whole tables the way the paper
feeds its text baselines ("The training set is comprised of table
tuples"), and wrap a model exposing ``embed_text(str) -> np.ndarray``
into the embedding callables the task runners expect.
"""

from __future__ import annotations

from typing import Callable, Protocol

import numpy as np

from ..tables.table import Table


class TextEmbedderLike(Protocol):
    def embed_text(self, text: str) -> np.ndarray: ...


def serialize_tuple(table: Table, i: int) -> str:
    """One data row as text, prefixed by its VMD labels when present."""
    parts = []
    label = table.qualified_row_label(i)
    if label:
        parts.append(label)
    parts.extend(cell.text for cell in table.row(i) if cell.text)
    return " ; ".join(parts)


def serialize_column(table: Table, j: int) -> str:
    """A column as text: qualified header plus its values."""
    parts = [table.qualified_column_label(j)]
    parts.extend(cell.text for cell in table.column(j) if cell.text)
    return " ; ".join(p for p in parts if p)


def serialize_table(table: Table, include_caption: bool = True) -> str:
    """Whole-table serialization (tuples concatenated)."""
    parts = []
    if include_caption and table.caption:
        parts.append(table.caption)
    header = " | ".join(table.qualified_column_label(j) for j in range(table.n_cols))
    if header.strip(" |"):
        parts.append(header)
    parts.extend(serialize_tuple(table, i) for i in range(table.n_rows))
    return " . ".join(parts)


def corpus_tuples(corpus: list[Table], include_captions: bool = False) -> list[str]:
    """All tuple texts of a corpus — the text baselines' training set."""
    texts: list[str] = []
    for table in corpus:
        if include_captions and table.caption:
            texts.append(table.caption)
        header = " ; ".join(
            table.qualified_column_label(j) for j in range(table.n_cols)
        )
        if header.strip(" ;"):
            texts.append(header)
        texts.extend(serialize_tuple(table, i) for i in range(table.n_rows))
    return texts


def make_column_embedder(model: TextEmbedderLike) -> Callable[[Table, int], np.ndarray]:
    return lambda table, j: model.embed_text(serialize_column(table, j))


def make_table_embedder(model: TextEmbedderLike,
                        include_caption: bool = True) -> Callable[[Table], np.ndarray]:
    return lambda table: model.embed_text(
        serialize_table(table, include_caption=include_caption)
    )


def make_entity_embedder(model: TextEmbedderLike) -> Callable[[str], np.ndarray]:
    return model.embed_text
