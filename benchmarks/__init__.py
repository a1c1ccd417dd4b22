"""Paper-table and figure benchmarks (pytest files sharing ``common``)."""
