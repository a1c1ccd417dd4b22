"""The cell: raw text, parsed value, coordinates, and gold labels."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..text.units import feature_bits
from .coordinates import BiCoordinates
from .values import (
    CellValue,
    GaussianValue,
    NestedTableValue,
    NumberValue,
    RangeValue,
    parse_value,
)


@dataclass
class Cell:
    """One data cell of a table.

    Attributes
    ----------
    text:
        Raw surface form (what a reader sees).
    value:
        Parsed :class:`~repro.tables.values.CellValue`.
    coords:
        Bi-dimensional coordinates within the enclosing table.
    entity_type:
        Optional gold semantic label stamped by the synthetic generators
        (used as evaluation ground truth, standing in for the paper's
        human annotators).
    """

    text: str
    value: CellValue = None  # type: ignore[assignment]
    coords: BiCoordinates = field(default_factory=BiCoordinates)
    entity_type: str | None = None

    def __post_init__(self):
        if self.value is None:
            self.value = parse_value(self.text)

    # -- shape predicates --------------------------------------------------
    @property
    def is_numeric(self) -> bool:
        return isinstance(self.value, (NumberValue, RangeValue, GaussianValue))

    @property
    def has_nested_table(self) -> bool:
        return isinstance(self.value, NestedTableValue)

    @property
    def nested_table(self) -> Any | None:
        if isinstance(self.value, NestedTableValue):
            return self.value.table
        return None

    @property
    def unit_category(self) -> str | None:
        return getattr(self.value, "category", None)

    def cell_features(self) -> list[int]:
        """The paper's 8-bit unit/nesting feature vector for this cell."""
        return feature_bits(self.unit_category, self.has_nested_table)

    def numbers(self) -> list[float]:
        """All numeric scalars carried by the value (for E_num features)."""
        value = self.value
        if isinstance(value, NumberValue):
            return [value.value]
        if isinstance(value, RangeValue):
            return [value.start, value.end]
        if isinstance(value, GaussianValue):
            return [value.mean, value.std]
        return []
