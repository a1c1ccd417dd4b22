"""Unit lexicon and 14-type inference tests."""

import pytest

from repro.text import (
    CELL_FEATURE_ORDER,
    NUM_CELL_FEATURES,
    NUM_TYPES,
    TYPE_NAMES,
    TYPE_TO_ID,
    TypeInference,
    UNIT_CATEGORIES,
    detect_trailing_unit,
    feature_bits,
    unit_category,
)


class TestUnits:
    def test_seven_categories_plus_nested(self):
        assert len(UNIT_CATEGORIES) == 7
        assert NUM_CELL_FEATURES == 8
        assert CELL_FEATURE_ORDER == UNIT_CATEGORIES + ("nested",)

    def test_paper_feature_order(self):
        assert CELL_FEATURE_ORDER == (
            "stats", "length", "weight", "capacity", "time", "temperature",
            "pressure", "nested",
        )

    @pytest.mark.parametrize("unit,category", [
        ("%", "stats"), ("percent", "stats"), ("mean", "stats"),
        ("cm", "length"), ("miles", "length"),
        ("mg", "weight"), ("kg", "weight"),
        ("ml", "capacity"), ("liters", "capacity"),
        ("months", "time"), ("days", "time"), ("years", "time"),
        ("celsius", "temperature"),
        ("mmhg", "pressure"), ("psi", "pressure"),
    ])
    def test_unit_category(self, unit, category):
        assert unit_category(unit) == category

    def test_unknown_unit(self):
        assert unit_category("flibbers") is None
        assert unit_category(None) is None
        assert unit_category("") is None

    def test_case_insensitive(self):
        assert unit_category("MG") == "weight"

    def test_detect_trailing_unit(self):
        assert detect_trailing_unit("20.3 months") == ("months", "time")
        assert detect_trailing_unit("45 %") == ("%", "stats")
        assert detect_trailing_unit("hello") == (None, None)
        assert detect_trailing_unit("20.3 zorks") == (None, None)

    def test_feature_bits_layout(self):
        bits = feature_bits("time", nested=False)
        assert bits == [0, 0, 0, 0, 1, 0, 0, 0]
        bits = feature_bits(None, nested=True)
        assert bits == [0, 0, 0, 0, 0, 0, 0, 1]
        bits = feature_bits("stats", nested=True)
        assert bits == [1, 0, 0, 0, 0, 0, 0, 1]


class TestTypeInference:
    def setup_method(self):
        self.ti = TypeInference()

    def test_exactly_fourteen_types(self):
        assert NUM_TYPES == 14
        assert len(TYPE_NAMES) == 14
        assert TYPE_TO_ID["text"] == 0

    @pytest.mark.parametrize("text,expected", [
        ("42", "number"), ("3.14", "number"), ("20.3 months", "number"),
        ("20-30", "range"), ("20 to 30", "range"),
        ("12.3 ± 4.5", "gaussian"), ("12.3 +/- 4.5", "gaussian"),
        ("45%", "percent"), ("45 percent", "percent"),
        ("2021", "date"), ("2021-03-15", "date"), ("Jan 5, 2021", "date"),
        ("james smith", "person"),
        ("new york", "place"), ("florida", "place"),
        ("mayo clinic", "organization"),
        ("colon cancer", "disease"), ("fever", "disease"),
        ("ramucirumab", "drug"),
        ("moderna", "vaccine"),
        ("chemotherapy", "treatment"),
        ("overall survival", "measurement"), ("burglary", "measurement"),
        ("random gibberish xyz", "text"),
        ("", "text"),
    ])
    def test_inference(self, text, expected):
        assert self.ti.infer(text) == expected

    def test_ids_match_names(self):
        assert self.ti.infer_id("ramucirumab") == TYPE_TO_ID["drug"]
        assert 0 <= self.ti.infer_id("whatever") < NUM_TYPES

    def test_case_insensitive(self):
        assert self.ti.infer("Ramucirumab") == "drug"
        assert self.ti.infer("NEW YORK") == "place"

    def test_embedded_phrase_matched(self):
        assert self.ti.infer("patients with colon cancer") == "disease"

    def test_extra_gazetteer(self):
        custom = TypeInference(extra_gazetteers={"drug": ("zzz-17",)})
        assert custom.infer("zzz-17") == "drug"

    def test_extra_gazetteer_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            TypeInference(extra_gazetteers={"spell": ("abracadabra",)})

    def test_year_range_not_date(self):
        # A range of years parses as range, not date (shape priority).
        assert self.ti.infer("2001-2005") == "range"
