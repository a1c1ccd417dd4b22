"""The table model: ``T = [C, H, V, D]`` (Section 2.1).

A table is a caption ``C``, horizontal metadata ``H`` (one or more header
rows, possibly hierarchical), vertical metadata ``V`` (zero or more
header columns, possibly hierarchical), and a data grid ``D`` whose cells
may hold text, numbers with units, ranges, gaussians, or entire nested
tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cell import Cell
from .coordinates import BiCoordinates, CoordinateContext
from .tree import MetadataTree
from .values import NestedTableValue, parse_value


@dataclass(frozen=True)
class MetadataLabel:
    """A metadata label with its tree location (used by the serializer).

    ``level`` is 1-based depth; ``span`` the half-open leaf range the
    label covers; ``position`` its index among its level's labels.
    """

    label: str
    level: int
    span: tuple[int, int]
    position: int
    orientation: str  # "hmd" or "vmd"

    def coords(self) -> BiCoordinates:
        """Coordinates of the label itself.

        An HMD label at level ``l`` sits in header row ``l - 1`` and
        starts at its span's first column; its horizontal path position
        is its index among the level's labels (symmetrically for VMD).
        """
        if self.orientation == "hmd":
            return BiCoordinates(horizontal=(self.position,),
                                 row=self.level - 1, col=self.span[0])
        return BiCoordinates(vertical=(self.position,),
                             row=self.span[0], col=self.level - 1)


class Table:
    """A (possibly non-relational) table with bi-dimensional metadata.

    Parameters
    ----------
    caption:
        Short description of the table (``C`` in the paper).
    header_rows:
        HMD levels: each level has one slot per data column; spanning
        labels are written once and continued with ``None``.
    header_cols:
        VMD levels: each level has one slot per data row.
    data:
        ``n x m`` grid; entries are raw strings or :class:`Table`
        instances (which become nested tables).
    topic:
        Gold topic label (ground truth for Table Clustering).
    column_concepts:
        Gold per-column concept names (ground truth for Column
        Clustering); defaults to the qualified HMD label.
    entity_types:
        Optional ``n x m`` grid of gold entity-type labels for cells.
    """

    def __init__(self, caption: str, header_rows: list[list[str | None]],
                 data: list[list], header_cols: list[list[str | None]] | None = None,
                 topic: str | None = None,
                 column_concepts: list[str] | None = None,
                 entity_types: list[list[str | None]] | None = None,
                 source: str | None = None):
        self.caption = caption
        self.topic = topic
        self.source = source
        if not data or not data[0]:
            raise ValueError("table must have at least one data cell")
        self.n_rows = len(data)
        self.n_cols = len(data[0])
        for i, row in enumerate(data):
            if len(row) != self.n_cols:
                raise ValueError(f"ragged data: row {i} has {len(row)} cells, "
                                 f"expected {self.n_cols}")

        self.hmd_tree = MetadataTree(header_rows, width=self.n_cols)
        self.vmd_tree = MetadataTree(header_cols or [], width=self.n_rows)

        context = CoordinateContext(
            hmd_coordinate=tuple(self.hmd_tree.coordinate(j) for j in range(self.n_cols)),
            vmd_coordinate=tuple(self.vmd_tree.coordinate(i) for i in range(self.n_rows)),
        )
        self.data: list[list[Cell]] = []
        for i, row in enumerate(data):
            cells: list[Cell] = []
            for j, raw in enumerate(row):
                coords = context.for_cell(i, j)
                entity = None
                if entity_types is not None:
                    entity = entity_types[i][j]
                cells.append(_make_cell(raw, coords, entity))
            self.data.append(cells)

        if column_concepts is not None and len(column_concepts) != self.n_cols:
            raise ValueError("column_concepts length must equal n_cols")
        self._column_concepts = column_concepts

    # -- structure predicates -------------------------------------------------
    @property
    def has_hmd(self) -> bool:
        return self.hmd_tree.depth > 0

    @property
    def has_vmd(self) -> bool:
        return self.vmd_tree.depth > 0

    @property
    def has_hierarchical_metadata(self) -> bool:
        return self.hmd_tree.is_hierarchical() or self.vmd_tree.is_hierarchical()

    @property
    def has_nesting(self) -> bool:
        return any(cell.has_nested_table for cell in self.all_cells())

    @property
    def is_relational(self) -> bool:
        """1NF shape: a single header row, no VMD, no nesting."""
        return (self.hmd_tree.depth <= 1 and not self.has_vmd
                and not self.has_nesting)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def numeric_fraction(self) -> float:
        cells = list(self.all_cells())
        if not cells:
            return 0.0
        return sum(c.is_numeric for c in cells) / len(cells)

    # -- access -----------------------------------------------------------------
    def row(self, i: int) -> list[Cell]:
        return self.data[i]

    def column(self, j: int) -> list[Cell]:
        return [self.data[i][j] for i in range(self.n_rows)]

    def all_cells(self):
        for row in self.data:
            yield from row

    def nested_tables(self) -> list["Table"]:
        return [cell.nested_table for cell in self.all_cells()
                if cell.has_nested_table]

    def column_label(self, j: int) -> str:
        """Deepest HMD label of column ``j``."""
        return self.hmd_tree.leaf_label(j)

    def qualified_column_label(self, j: int) -> str:
        return self.hmd_tree.qualified_label(j)

    def row_label(self, i: int) -> str:
        """Deepest VMD label of row ``i`` (empty when no VMD)."""
        return self.vmd_tree.leaf_label(i)

    def qualified_row_label(self, i: int) -> str:
        return self.vmd_tree.qualified_label(i)

    def column_concept(self, j: int) -> str:
        """Gold concept for CC evaluation (falls back to the HMD label)."""
        if self._column_concepts is not None:
            return self._column_concepts[j]
        return self.column_label(j).lower()

    # -- metadata enumeration (for the serializer) ---------------------------------
    def hmd_labels(self) -> list[MetadataLabel]:
        return _labels_of(self.hmd_tree, "hmd")

    def vmd_labels(self) -> list[MetadataLabel]:
        return _labels_of(self.vmd_tree, "vmd")

    # -- serialization -------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "caption": self.caption,
            "topic": self.topic,
            "source": self.source,
            "header_rows": self.hmd_tree.levels,
            "header_cols": self.vmd_tree.levels,
            "column_concepts": self._column_concepts,
            "data": [
                [
                    {"nested": cell.nested_table.to_dict()}
                    if cell.has_nested_table
                    else {"text": cell.text, "entity": cell.entity_type}
                    for cell in row
                ]
                for row in self.data
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "relational" if self.is_relational else "BiN"
        return (f"Table({self.caption!r}, {self.n_rows}x{self.n_cols}, {kind}, "
                f"hmd_depth={self.hmd_tree.depth}, vmd_depth={self.vmd_tree.depth})")


def _make_cell(raw, coords: BiCoordinates, entity: str | None) -> Cell:
    if isinstance(raw, Table):
        value = NestedTableValue(raw)
        return Cell(text=value.render(), value=value, coords=coords,
                    entity_type=entity)
    text = str(raw)
    return Cell(text=text, value=parse_value(text), coords=coords,
                entity_type=entity)


def _labels_of(tree: MetadataTree, orientation: str) -> list[MetadataLabel]:
    out: list[MetadataLabel] = []
    for node in tree.nodes():
        out.append(MetadataLabel(
            label=node.label, level=node.level, span=node.span,
            position=node.position, orientation=orientation,
        ))
    return out
