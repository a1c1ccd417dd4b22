"""Table serialization into TabBiN input sequences (Sections 3.1, 3.3).

A table is partitioned into three segments — data, HMD, VMD — and each
segment is serialized separately ("We separate the model pre-training for
data and metadata, so their context is treated separately").  Data is
read row-by-row for the *row* model and column-by-column for the *column*
model.  Every row/column starts with ``[CLS]`` and cells are separated by
``[SEP]``; sequences are chunked to at most ``max_seq_len`` tokens and
cells trimmed to at most ``max_cell_tokens`` (I = 64).

Each token carries six parallel feature streams that feed the embedding
layer: token id, numeric features (magnitude/precision/first/last), the
in-cell position, the six bi-dimensional coordinate indexes, the inferred
semantic type, and the 8-bit unit/nesting cell features.  Tokens also
carry *visibility groups* (a group id plus a span) from which
:mod:`repro.core.visibility` builds the attention mask.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..tables.cell import Cell
from ..tables.table import MetadataLabel, Table
from ..text.tokenizer import WordPieceTokenizer
from ..text.types import TypeInference
from .config import SEGMENTS, TabBiNConfig
from .numeric_features import NULL_FEATURES, numeric_features

#: Span value that overlaps everything (used for [CLS] tokens).
_WILDCARD_SPAN = (0, 1 << 30)


@dataclass(frozen=True)
class CellRef:
    """Identity of the table fragment a token group came from.

    ``kind`` is ``data`` / ``hmd`` / ``vmd``; for data cells ``row``/
    ``col`` are grid coordinates and ``span`` is ``(col, col+1)``; for
    metadata labels ``row`` is the level (1-based), ``col`` the label's
    position within its level, and ``span`` the leaf range it covers.
    """

    kind: str
    row: int
    col: int
    span: tuple[int, int]
    text: str


@dataclass
class EncodedSequence:
    """One model input: parallel token-feature arrays plus cell mapping."""

    segment: str
    token_ids: np.ndarray          # (n,)   int
    numeric: np.ndarray            # (n, 4) int
    cell_pos: np.ndarray           # (n,)   int
    coords: np.ndarray             # (n, 6) int
    type_ids: np.ndarray           # (n,)   int
    features: np.ndarray           # (n, 8) float
    cell_index: np.ndarray         # (n,)   int, -1 for [CLS]/[SEP]
    group_ids: np.ndarray          # (n,)   int visibility group (-1 wildcard)
    spans: np.ndarray              # (n, 2) int visibility spans
    cell_refs: list[CellRef] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.token_ids)

    def tokens_of_cell(self, cell_idx: int) -> np.ndarray:
        """Positions of the tokens belonging to ``cell_refs[cell_idx]``."""
        return np.nonzero(self.cell_index == cell_idx)[0]


@dataclass
class _TokenSpec:
    token_id: int
    numeric: tuple[int, int, int, int] = NULL_FEATURES
    cell_pos: int = 0
    coords: tuple[int, int, int, int, int, int] = (0, 0, 0, 0, 0, 0)
    type_id: int = 0
    features: tuple[int, ...] = (0,) * 8
    cell_index: int = -1
    group_id: int = -1
    span: tuple[int, int] = _WILDCARD_SPAN
    ref_text: str = ""


class TabBiNSerializer:
    """Turn tables into :class:`EncodedSequence` batches for one segment."""

    def __init__(self, tokenizer: WordPieceTokenizer,
                 type_inference: TypeInference,
                 config: TabBiNConfig):
        self.tokenizer = tokenizer
        self.types = type_inference
        self.config = config
        self._type_cache: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def serialize(self, table: Table, segment: str) -> list[EncodedSequence]:
        """Sequences of ``table`` for one of the four model segments."""
        if segment not in SEGMENTS:
            raise ValueError(f"segment must be one of {SEGMENTS}, got {segment!r}")
        if segment == "row":
            units = [self._data_unit(table.row(i), orient="row") for i in range(table.n_rows)]
        elif segment == "column":
            units = [self._data_unit(table.column(j), orient="column") for j in range(table.n_cols)]
        elif segment == "hmd":
            units = self._metadata_units(table.hmd_labels(), "hmd")
        else:
            units = self._metadata_units(table.vmd_labels(), "vmd")
        units = [u for u in units if u]
        return self._chunk(units, segment)

    def serialize_text(self, text: str, segment: str = "column") -> EncodedSequence:
        """A standalone phrase (entity string, caption) as one sequence.

        Used for Entity Clustering, where catalog entries are embedded
        with the TabBiN-column model (Section 4.3).
        """
        cell = Cell(text=text)
        specs = [self._cls_spec()]
        specs.extend(self._cell_specs(cell, cell_index=0, group_id=0, span=(0, 1)))
        specs = specs[: self.config.max_seq_len]
        refs = [CellRef("data", 0, 0, (0, 1), text)]
        return self._assemble(specs, refs, segment)

    # ------------------------------------------------------------------
    # Units (one row / column / metadata level group, each led by [CLS])
    # ------------------------------------------------------------------
    def _data_unit(self, cells: list[Cell], orient: str) -> list[_TokenSpec]:
        specs: list[_TokenSpec] = [self._cls_spec()]
        for cell in cells:
            group, span = self._data_visibility(cell, orient)
            body = self._cell_specs(cell, cell_index=-2, group_id=group, span=span)
            if not body:
                continue
            specs.extend(body)
            specs.append(self._sep_spec(group, span))
        return specs if len(specs) > 1 else []

    @staticmethod
    def _data_visibility(cell: Cell, orient: str) -> tuple[int, tuple[int, int]]:
        """Group = the reading-direction line; span = the cross line.

        Tokens are visible to each other when they share a row or a
        column (Section 3.2): group ids capture one axis, spans the
        other, and the mask builder ORs the two conditions.
        """
        row, col = cell.coords.row, cell.coords.col
        if orient == "row":
            return row, (col, col + 1)
        return col + (1 << 20), (row, row + 1)

    def _metadata_units(self, labels: list[MetadataLabel],
                        kind: str) -> list[list[_TokenSpec]]:
        """One unit per metadata level; labels carry their tree spans.

        Metadata tokens of the same level see each other (they are the
        same "row" of the header region) and ancestors/descendants see
        each other through overlapping spans — the hierarchical
        neighborhood the paper wants metadata to aggregate.
        """
        by_level: dict[int, list[MetadataLabel]] = {}
        for label in labels:
            by_level.setdefault(label.level, []).append(label)
        units: list[list[_TokenSpec]] = []
        for level in sorted(by_level):
            specs: list[_TokenSpec] = [self._cls_spec()]
            for label in sorted(by_level[level], key=lambda l: l.span):
                cell = Cell(text=label.label, coords=label.coords())
                body = self._cell_specs(cell, cell_index=-2, group_id=level,
                                        span=label.span)
                if not body:
                    continue
                specs.extend(body)
                specs.append(self._sep_spec(level, label.span))
            if len(specs) > 1:
                units.append(specs)
        return units

    # ------------------------------------------------------------------
    # Cell expansion
    # ------------------------------------------------------------------
    def _cell_specs(self, cell: Cell, cell_index: int, group_id: int,
                    span: tuple[int, int]) -> list[_TokenSpec]:
        if cell.has_nested_table:
            return self._nested_specs(cell, group_id, span)
        pieces = self.tokenizer.tokenize(cell.text)
        if not pieces:
            return []
        numbers = deque(cell.numbers())
        type_id = self._type_of(cell.text)
        feats = tuple(cell.cell_features())
        coords = cell.coords.embedding_indexes(self.config.max_position)
        specs: list[_TokenSpec] = []
        for pos, piece in enumerate(pieces[: self.config.max_cell_tokens]):
            token_id = self.tokenizer.vocab.id(piece)
            num = NULL_FEATURES
            if token_id == self.tokenizer.vocab.val_id and numbers:
                num = numeric_features(numbers.popleft())
            specs.append(_TokenSpec(
                token_id=token_id, numeric=num,
                cell_pos=min(pos, self.config.max_cell_tokens - 1),
                coords=coords, type_id=type_id, features=feats,
                cell_index=cell_index, group_id=group_id, span=span,
                ref_text=cell.text,
            ))
        return specs

    def _nested_specs(self, cell: Cell, group_id: int,
                      span: tuple[int, int]) -> list[_TokenSpec]:
        """Inline a nested table within its enclosing cell.

        Nested tokens keep the outer cell's bi-dimensional coordinates
        and visibility, and add the nested (row, col) coordinate starting
        at index 1, as the "Out-position" paragraph describes.
        """
        nested: Table = cell.nested_table
        outer = cell.coords
        depth = nested.hmd_tree.depth
        specs: list[_TokenSpec] = []

        def emit(inner: Cell, nr: int, nc: int):
            shifted = Cell(
                text=inner.text, value=inner.value,
                coords=outer.__class__(
                    horizontal=outer.horizontal, vertical=outer.vertical,
                    row=outer.row, col=outer.col, nested=(nr, nc),
                ),
                entity_type=inner.entity_type,
            )
            body = self._cell_specs(shifted, cell_index=-2,
                                    group_id=group_id, span=span)
            for spec in body:
                # Every token inside a nested cell carries the nested bit
                # ("The last bit indicates the presence of a nested table
                # in the cell").
                feats = list(spec.features)
                feats[-1] = 1
                spec.features = tuple(feats)
            specs.extend(body)

        for label in nested.hmd_labels():
            emit(Cell(text=label.label), label.level, label.span[0] + 1)
        for i in range(nested.n_rows):
            for j in range(nested.n_cols):
                emit(nested.data[i][j], depth + i + 1, j + 1)
        return specs[: self.config.max_cell_tokens]

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def _chunk(self, units: list[list[_TokenSpec]],
               segment: str) -> list[EncodedSequence]:
        sequences: list[EncodedSequence] = []
        current: list[_TokenSpec] = []
        for unit in units:
            for piece in self._split_unit(unit):
                if current and len(current) + len(piece) > self.config.max_seq_len:
                    sequences.append(self._finish(current, segment))
                    current = []
                current.extend(piece)
        if current:
            sequences.append(self._finish(current, segment))
        return sequences

    def _split_unit(self, unit: list[_TokenSpec]) -> list[list[_TokenSpec]]:
        """Split a unit longer than ``max_seq_len`` into continuation
        pieces, preferring cell ([SEP]) boundaries; every piece starts
        with its own [CLS] so no cell content is dropped."""
        max_len = self.config.max_seq_len
        if len(unit) <= max_len:
            return [unit]
        pieces: list[list[_TokenSpec]] = []
        current: list[_TokenSpec] = [unit[0]]  # the unit's [CLS]
        for spec in unit[1:]:
            if len(current) >= max_len:
                pieces.append(current)
                current = [self._cls_spec()]
            current.append(spec)
            at_cell_boundary = spec.cell_index == -1  # a [SEP]
            if at_cell_boundary and len(current) >= max_len * 3 // 4:
                pieces.append(current)
                current = [self._cls_spec()]
        if len(current) > 1:
            pieces.append(current)
        return pieces

    def _finish(self, specs: list[_TokenSpec], segment: str) -> EncodedSequence:
        """Re-key cell groups and build the final arrays.

        ``_cell_specs`` marks cell-body tokens with ``cell_index = -2``;
        here consecutive runs that share (group, span, type, coords) are
        given stable indexes and a :class:`CellRef` each.
        """
        refs: list[CellRef] = []
        keyed: dict[tuple, int] = {}
        for spec in specs:
            if spec.cell_index == -2:
                key = (spec.group_id, spec.span, spec.coords)
                if key not in keyed:
                    keyed[key] = len(refs)
                    refs.append(self._ref_for(spec, segment))
                # Each spec sits in exactly one sequence, so re-keying in
                # place is safe (``_nested_specs`` mutates the same way).
                spec.cell_index = keyed[key]
        return self._assemble(specs, refs, segment)

    @staticmethod
    def _ref_for(spec: _TokenSpec, segment: str) -> CellRef:
        vr, vc, hr, hc, _nr, _nc = spec.coords
        if segment == "hmd":
            # vr carries level-1, hr the label's position within the level.
            return CellRef("hmd", row=vr + 1, col=hr, span=spec.span,
                           text=spec.ref_text)
        if segment == "vmd":
            # hc carries level-1, vc the label's position within the level.
            return CellRef("vmd", row=hc + 1, col=vc, span=spec.span,
                           text=spec.ref_text)
        return CellRef("data", row=vr, col=hc, span=spec.span,
                       text=spec.ref_text)

    def _assemble(self, specs: list[_TokenSpec], refs: list[CellRef],
                  segment: str) -> EncodedSequence:
        n = len(specs)
        return EncodedSequence(
            segment=segment,
            token_ids=np.array([s.token_id for s in specs], dtype=np.int64),
            numeric=np.array([s.numeric for s in specs], dtype=np.int64).reshape(n, 4),
            cell_pos=np.array([s.cell_pos for s in specs], dtype=np.int64),
            coords=np.array([s.coords for s in specs], dtype=np.int64).reshape(n, 6),
            type_ids=np.array([s.type_id for s in specs], dtype=np.int64),
            features=np.array([s.features for s in specs], dtype=float).reshape(n, 8),
            cell_index=np.array([s.cell_index for s in specs], dtype=np.int64),
            group_ids=np.array([s.group_id for s in specs], dtype=np.int64),
            spans=np.array([s.span for s in specs], dtype=np.int64).reshape(n, 2),
            cell_refs=refs,
        )

    # ------------------------------------------------------------------
    # Structural tokens
    # ------------------------------------------------------------------
    def _cls_spec(self) -> _TokenSpec:
        return _TokenSpec(token_id=self.tokenizer.vocab.cls_id,
                          group_id=-1, span=_WILDCARD_SPAN)

    def _sep_spec(self, group_id: int, span: tuple[int, int]) -> _TokenSpec:
        return _TokenSpec(token_id=self.tokenizer.vocab.sep_id,
                          group_id=group_id, span=span)

    def _type_of(self, text: str) -> int:
        cached = self._type_cache.get(text)
        if cached is None:
            cached = self.types.infer_id(text)
            self._type_cache[text] = cached
        return cached
