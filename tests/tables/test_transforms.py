"""BiN → relational flattening tests."""

from repro.tables import figure1_table, table1_nested, table2_relational
from repro.tables.transforms import flatten_to_relational


class TestFlatten:
    def test_result_is_relational(self):
        flat = flatten_to_relational(figure1_table())
        assert flat.is_relational
        assert not flat.has_nesting
        assert not flat.has_vmd

    def test_hierarchical_headers_qualified(self):
        flat = flatten_to_relational(figure1_table())
        labels = [flat.column_label(j) for j in range(flat.n_cols)]
        assert any("Efficacy End Point / OS" == l for l in labels)

    def test_vmd_becomes_key_columns(self):
        flat = flatten_to_relational(figure1_table())
        # Two VMD levels -> two leading key columns.
        first_cells = [flat.data[i][1].text for i in range(flat.n_rows)]
        assert "Previously Untreated" in first_cells

    def test_nested_tables_expand_to_columns(self):
        flat = flatten_to_relational(table1_nested())
        labels = [flat.column_label(j) for j in range(flat.n_cols)]
        assert any("Efficacy / OS" in l for l in labels)
        os_col = next(j for j, l in enumerate(labels) if "Efficacy / OS" in l)
        assert flat.data[0][os_col].text == "20.3 months"

    def test_non_nested_cell_in_nested_column_pads(self):
        flat = flatten_to_relational(table1_nested())
        labels = [flat.column_label(j) for j in range(flat.n_cols)]
        os_col = next(j for j, l in enumerate(labels) if "Efficacy / OS" in l)
        # Second row's Efficacy cell is plain text: lands in first slot.
        assert flat.data[1][os_col].text == "15.1 months"

    def test_already_relational_is_stable(self):
        t = table2_relational()
        flat = flatten_to_relational(t)
        assert flat.shape == t.shape
        assert [flat.column_label(j) for j in range(3)] == ["Name", "Age", "Job"]
        assert flat.data[0][0].text == "Sam"

    def test_preserves_caption_and_topic(self):
        flat = flatten_to_relational(figure1_table())
        assert flat.topic == "colorectal cancer treatment"
