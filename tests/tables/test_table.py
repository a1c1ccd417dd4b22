"""Table model tests: structure predicates, labels, grid parsing."""

import pytest

from repro.tables import (
    Table,
    figure1_table,
    parse_grid,
    table1_nested,
    table2_relational,
)


class TestConstruction:
    def test_rejects_empty_data(self):
        with pytest.raises(ValueError):
            Table("t", [["a"]], data=[])

    def test_rejects_ragged_data(self):
        with pytest.raises(ValueError):
            Table("t", [["a", "b"]], data=[["1", "2"], ["3"]])

    def test_rejects_bad_concepts_length(self):
        with pytest.raises(ValueError):
            Table("t", [["a"]], data=[["1"]], column_concepts=["x", "y"])

    def test_shape(self):
        t = table2_relational()
        assert t.shape == (3, 3)
        assert t.n_rows == 3 and t.n_cols == 3


class TestPredicates:
    def test_relational_table(self):
        t = table2_relational()
        assert t.is_relational
        assert not t.has_vmd
        assert not t.has_nesting
        assert not t.has_hierarchical_metadata

    def test_figure1_is_bin_table(self):
        t = figure1_table()
        assert not t.is_relational
        assert t.has_vmd and t.has_hmd
        assert t.has_hierarchical_metadata
        assert t.has_nesting

    def test_nested_tables_found(self):
        t = figure1_table()
        nested = t.nested_tables()
        assert len(nested) == 2
        assert all(n.n_cols == 3 for n in nested)

    def test_numeric_fraction(self):
        t = table2_relational()
        # One numeric column (Age) of three.
        assert t.numeric_fraction() == pytest.approx(1 / 3)


class TestLabels:
    def test_column_labels(self):
        t = figure1_table()
        assert t.column_label(1) == "OS"
        assert t.qualified_column_label(1) == "Efficacy End Point → OS"

    def test_row_labels(self):
        t = figure1_table()
        assert t.row_label(0) == "Previously Untreated"
        assert "Patient Cohort" in t.qualified_row_label(0)

    def test_row_label_empty_without_vmd(self):
        t = table2_relational()
        assert t.row_label(0) == ""

    def test_column_concept_fallback(self):
        t = Table("t", [["Population"]], data=[["5"]])
        assert t.column_concept(0) == "population"

    def test_column_concept_explicit(self):
        t = table2_relational()
        assert t.column_concept(0) == "person name"

    def test_metadata_label_enumeration(self):
        t = figure1_table()
        hmd = t.hmd_labels()
        assert {l.label for l in hmd} == {
            "Efficacy End Point", "ORR", "OS", "Other Efficacy",
        }
        parent = next(l for l in hmd if l.label == "Efficacy End Point")
        assert parent.level == 1 and parent.span == (0, 3)
        vmd = t.vmd_labels()
        assert any(l.label == "Patient Cohort" for l in vmd)

    def test_metadata_label_coords(self):
        t = figure1_table()
        os_label = next(l for l in t.hmd_labels() if l.label == "OS")
        coords = os_label.coords()
        assert coords.row == 1      # level 2 -> header row index 1
        assert coords.col == 1


class TestCellAccess:
    def test_row_and_column_views(self):
        t = table2_relational()
        assert [c.text for c in t.row(0)] == ["Sam", "28", "Engineer"]
        assert [c.text for c in t.column(2)] == ["Engineer", "Lawyer", "Scientist"]

    def test_all_cells_count(self):
        t = table2_relational()
        assert len(list(t.all_cells())) == 9

    def test_entity_types_stamped(self):
        t = table2_relational()
        assert t.data[0][0].entity_type == "person"
        assert t.data[0][1].entity_type is None

    def test_cell_coordinates(self):
        t = figure1_table()
        cell = t.data[1][2]
        assert cell.coords.row == 1 and cell.coords.col == 2
        assert cell.coords.horizontal == t.hmd_tree.coordinate(2)

    def test_cell_features_unit_and_nesting(self):
        t = figure1_table()
        assert t.data[0][1].cell_features()[4] == 1      # months -> time bit
        assert t.data[0][2].cell_features()[-1] == 1     # nested bit


class TestParseGrid:
    def test_simple_relational(self):
        t = parse_grid([
            ["Name", "Age"],
            ["Sam", "28"],
            ["Alice", "34"],
        ], n_header_rows=1)
        assert t.is_relational
        assert t.column_label(0) == "Name"
        assert t.n_rows == 2

    def test_header_cols(self):
        t = parse_grid([
            ["", "OS", "PFS"],
            ["colon", "20.3", "5.6"],
            ["rectal", "18.1", "4.2"],
        ], n_header_rows=1, n_header_cols=1)
        assert t.has_vmd
        assert t.row_label(0) == "colon"
        assert t.n_cols == 2

    def test_merged_spans_via_empty_strings(self):
        t = parse_grid([
            ["Efficacy", "", ""],
            ["ORR", "OS", "HR"],
            ["1", "2", "3"],
        ], n_header_rows=2)
        assert t.hmd_tree.depth == 2
        assert t.qualified_column_label(1) == "Efficacy → OS"

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_grid([])
        with pytest.raises(ValueError):
            parse_grid([["a", "b"], ["c"]])
        with pytest.raises(ValueError):
            parse_grid([["a"]], n_header_rows=1)
        with pytest.raises(ValueError):
            parse_grid([["a"], ["b"]], n_header_rows=1, n_header_cols=1)
