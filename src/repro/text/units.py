"""Unit lexicon and detection.

Section 3.1 ("Units and Nesting") encodes cell features as an 8-bit
one-hot vector in the order ``[stats, length, weight, capacity, time,
temperature, pressure, nested]`` — seven unit categories plus a nesting
bit.  This module owns the unit categories and the string → category
lookup used both by value parsing and by the synthetic generators.
"""

from __future__ import annotations

import re

#: Order matters — it fixes the bit layout of the cell-feature vector.
UNIT_CATEGORIES = (
    "stats", "length", "weight", "capacity", "time", "temperature", "pressure",
)
NESTED_FEATURE = "nested"
CELL_FEATURE_ORDER = UNIT_CATEGORIES + (NESTED_FEATURE,)
NUM_CELL_FEATURES = len(CELL_FEATURE_ORDER)  # F = 8 in the paper

#: Canonical unit string -> category.
_UNIT_TABLE: dict[str, str] = {}


def _register(category: str, *aliases: str) -> None:
    for alias in aliases:
        _UNIT_TABLE[alias] = category


_register("stats", "%", "percent", "pct", "mean", "median", "sd", "iqr", "ci",
          "ratio", "rate", "hr", "or", "rr", "p")
_register("length", "mm", "cm", "m", "km", "in", "inch", "inches", "ft",
          "feet", "mi", "mile", "miles", "yd")
_register("weight", "mcg", "ug", "mg", "g", "kg", "lb", "lbs", "ton", "tons",
          "oz")
_register("capacity", "ml", "dl", "l", "liter", "liters", "gal", "gallon",
          "gallons", "cc", "fl oz")
_register("time", "ms", "s", "sec", "secs", "min", "mins", "h", "hour",
          "hours", "day", "days", "week", "weeks", "month", "months", "yr",
          "yrs", "year", "years")
_register("temperature", "\N{DEGREE SIGN}c", "\N{DEGREE SIGN}f", "celsius",
          "fahrenheit", "kelvin")
_register("pressure", "mmhg", "pa", "kpa", "atm", "bar", "psi", "torr")

_UNIT_SUFFIX_RE = re.compile(
    r"^\s*[+-]?\d+(?:\.\d+)?\s*(?P<unit>[%\w\N{DEGREE SIGN}]+(?:\s?oz)?)\s*$"
)


def unit_category(unit: str | None) -> str | None:
    """Map a unit string to one of :data:`UNIT_CATEGORIES` (or ``None``)."""
    if not unit:
        return None
    return _UNIT_TABLE.get(unit.strip().lower())


def detect_trailing_unit(text: str) -> tuple[str | None, str | None]:
    """Find a unit attached to a number, e.g. ``"20.3 months"``.

    Returns ``(unit_string, category)``; both ``None`` when no known unit
    trails the number.
    """
    match = _UNIT_SUFFIX_RE.match(text)
    if not match:
        return None, None
    unit = match.group("unit").lower()
    category = _UNIT_TABLE.get(unit)
    if category is None:
        return None, None
    return unit, category


def feature_bits(unit_cat: str | None, nested: bool) -> list[int]:
    """8-bit cell feature vector in the paper's fixed order."""
    bits = [0] * NUM_CELL_FEATURES
    if unit_cat is not None:
        bits[CELL_FEATURE_ORDER.index(unit_cat)] = 1
    if nested:
        bits[-1] = 1
    return bits
