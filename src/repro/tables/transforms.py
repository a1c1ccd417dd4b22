"""Structural transforms: BiN tables ↔ relational views.

The paper contrasts TabBiN with Auto-Tables [48], which *relationalizes*
non-relational tables so SQL tools can query them.  TabBiN instead
embeds BiN tables natively — but downstream consumers (SQL engines,
dataframe libraries) still want 1NF views, so this module provides the
lossy-but-faithful :func:`flatten_to_relational`: a qualified
single-row header, VMD levels hoisted into leading key columns, nested
tables expanded into suffixed columns.
"""

from __future__ import annotations

from .table import Table


def flatten_to_relational(table: Table, sep: str = " / ") -> Table:
    """A 1NF view of a BiN table.

    Hierarchical HMD collapses into qualified labels ("Efficacy End
    Point / OS"); each VMD level becomes a leading key column; a nested
    table inside a cell expands into one column per nested cell, labeled
    ``<outer> / <nested header>``.  The result is relational
    (single-header, no VMD, no nesting) by construction.
    """
    header: list[str] = []
    vmd_depth = table.vmd_tree.depth
    for level in range(vmd_depth):
        labels = {l.label for l in table.vmd_labels() if l.level == level + 1}
        header.append(f"key{level + 1}" if len(labels) != 1 else
                      next(iter(labels)))

    # Map each original column to one or more flat columns.
    nested_widths: dict[int, list[str]] = {}
    for j in range(table.n_cols):
        base = table.qualified_column_label(j).replace(" → ", sep) or f"col{j}"
        nested_headers: list[str] = []
        for i in range(table.n_rows):
            cell = table.data[i][j]
            if cell.has_nested_table:
                inner = cell.nested_table
                headers = [inner.column_label(k) or f"c{k}"
                           for k in range(inner.n_cols)]
                if len(headers) > len(nested_headers):
                    nested_headers = headers
        if nested_headers:
            nested_widths[j] = [f"{base}{sep}{h}" for h in nested_headers]
            header.extend(nested_widths[j])
        else:
            header.append(base)

    rows: list[list[str]] = []
    for i in range(table.n_rows):
        row: list[str] = []
        for level in range(vmd_depth):
            labels = [l.label for l in table.vmd_labels()
                      if l.level == level + 1 and l.span[0] <= i < l.span[1]]
            row.append(labels[0] if labels else "")
        for j in range(table.n_cols):
            cell = table.data[i][j]
            if j in nested_widths:
                width = len(nested_widths[j])
                if cell.has_nested_table:
                    inner = cell.nested_table
                    flat = [inner.data[0][k].text if inner.n_rows else ""
                            for k in range(inner.n_cols)]
                    flat += [""] * (width - len(flat))
                    row.extend(flat[:width])
                else:
                    row.extend([cell.text] + [""] * (width - 1))
            else:
                row.append(cell.text)
        rows.append(row)

    return Table(
        caption=table.caption,
        header_rows=[header],
        data=rows,
        topic=table.topic,
        source=table.source,
    )
