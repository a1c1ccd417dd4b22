"""Table substrate: BiN tables with hierarchical metadata and nesting."""

from .cell import Cell
from .coordinates import BiCoordinates, CoordinateContext
from .examples import (
    figure1_table,
    nested_efficacy_table,
    table1_nested,
    table2_relational,
)
from .parser import parse_grid
from .table import MetadataLabel, Table
from .transforms import flatten_to_relational
from .tree import MetadataNode, MetadataTree
from .values import (
    CellValue,
    GaussianValue,
    NestedTableValue,
    NumberValue,
    RangeValue,
    TextValue,
    parse_value,
)

__all__ = [
    "Table", "Cell", "MetadataLabel", "MetadataTree", "MetadataNode",
    "BiCoordinates", "CoordinateContext",
    "CellValue", "TextValue", "NumberValue", "RangeValue", "GaussianValue",
    "NestedTableValue", "parse_value",
    "parse_grid", "flatten_to_relational",
    "figure1_table", "table1_nested", "table2_relational",
    "nested_efficacy_table",
]
