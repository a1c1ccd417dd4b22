"""Hierarchical metadata trees (coordinate trees).

Section 2.3: "There are two coordinate-trees — horizontal and vertical
... Both coordinate values correspond to the paths from the root nodes of
the trees to the cell."

A tree is built from a *header grid*: a list of levels, each level a list
with one slot per data column (HMD) or per data row (VMD).  A label that
spans several slots is written once and continued with ``None``; deeper
levels refine their parent's span.  Example (HMD for Figure 1)::

    level 0: ["Efficacy End Point", None,  None ]
    level 1: ["ORR",               "OS",  "Other Efficacy"]
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class MetadataNode:
    """A node in a coordinate tree.

    ``span`` is the half-open range of leaf indexes (columns for HMD,
    rows for VMD) the label covers; ``level`` is its depth (root = 0 is
    the synthetic tree root, real labels start at level 1).
    """

    label: str
    level: int
    span: tuple[int, int]
    children: list["MetadataNode"] = field(default_factory=list)
    #: Position of this node among its level's nodes (left to right).
    position: int = 0

    def covers(self, index: int) -> bool:
        return self.span[0] <= index < self.span[1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetadataNode({self.label!r}, level={self.level}, span={self.span})"


class MetadataTree:
    """A coordinate tree over ``width`` leaf slots.

    Provides path queries used for bi-dimensional coordinates: for a leaf
    index, :meth:`path` returns the labels root→leaf and
    :meth:`coordinate` the per-level node positions — the ``<2,7>``-style
    vectors in Figure 1.
    """

    def __init__(self, levels: list[list[str | None]], width: int | None = None):
        if levels and width is None:
            width = len(levels[0])
        self.width = width or 0
        for i, level in enumerate(levels):
            if len(level) != self.width:
                raise ValueError(
                    f"level {i} has {len(level)} slots, expected {self.width}"
                )
        self.levels = [list(level) for level in levels]
        self.root = MetadataNode("", 0, (0, self.width))
        self._build()

    @property
    def depth(self) -> int:
        """Number of metadata levels (0 for a tree with no metadata)."""
        return len(self.levels)

    def _build(self) -> None:
        parents = [self.root]
        for level_idx, level in enumerate(self.levels, start=1):
            nodes: list[MetadataNode] = []
            start = None
            label = None
            spans: list[tuple[str, int, int]] = []
            for i, slot in enumerate(level):
                if slot is not None:
                    if label is not None:
                        spans.append((label, start, i))
                    label, start = slot, i
            if label is not None:
                spans.append((label, start, self.width))
            for position, (lbl, lo, hi) in enumerate(spans):
                node = MetadataNode(lbl, level_idx, (lo, hi), position=position)
                parent = next((p for p in parents if p.covers(lo)), self.root)
                parent.children.append(node)
                nodes.append(node)
            if nodes:
                parents = nodes

    # -- queries ------------------------------------------------------------
    def path(self, index: int) -> list[MetadataNode]:
        """Nodes covering leaf ``index``, shallowest first (root excluded)."""
        if not 0 <= index < self.width:
            raise IndexError(f"leaf index {index} out of range [0, {self.width})")
        out: list[MetadataNode] = []
        node = self.root
        while True:
            child = next((c for c in node.children if c.covers(index)), None)
            if child is None:
                return out
            out.append(child)
            node = child

    def path_labels(self, index: int) -> list[str]:
        """Labels along :meth:`path`, e.g. ``["Efficacy End Point", "OS"]``."""
        return [node.label for node in self.path(index)]

    def coordinate(self, index: int) -> tuple[int, ...]:
        """Per-level node positions along the path to leaf ``index``.

        This is the ``<i, j, ...>`` component of the paper's
        bi-dimensional coordinates: one integer per hierarchy level.
        """
        return tuple(node.position for node in self.path(index))

    def leaf_label(self, index: int) -> str:
        """Deepest label covering ``index`` (empty string if none)."""
        path = self.path(index)
        return path[-1].label if path else ""

    def qualified_label(self, index: int, sep: str = " → ") -> str:
        """Full hierarchical label, e.g. ``Efficacy End Point → OS``."""
        return sep.join(self.path_labels(index))

    def nodes(self) -> list[MetadataNode]:
        """All nodes in breadth-first order (root excluded)."""
        out: list[MetadataNode] = []
        frontier = list(self.root.children)
        while frontier:
            out.extend(frontier)
            frontier = [c for node in frontier for c in node.children]
        return out

    def is_hierarchical(self) -> bool:
        """True when the tree has more than one metadata level."""
        return self.depth > 1
