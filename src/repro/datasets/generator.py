"""The corpus generator: seeded synthetic tables with gold labels.

Replaces the paper's five corpora (which are not redistributable/
downloadable offline) with structurally equivalent synthetic ones.  Each
:class:`DatasetProfile` controls the documented structural statistics of
one corpus — table shapes, the fraction of non-relational tables, VMD /
hierarchical-metadata / nesting rates, and value shapes (units, ranges,
gaussians).  Ground-truth topic / column-concept / entity labels come
from the topic schemas, making MAP/MRR computable without annotators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..tables.table import Table
from .schemas import Concept, TopicSchema


@dataclass(frozen=True)
class DatasetProfile:
    """Structural statistics of one simulated corpus."""

    name: str
    topics: tuple[TopicSchema, ...]
    n_tables: int = 60
    rows: tuple[int, int] = (4, 14)          # data rows (min, max)
    extra_cols: tuple[int, int] = (3, 5)      # concepts per table (min, max)
    p_vmd: float = 0.0                        # tables with vertical metadata
    p_hier_hmd: float = 0.0                   # two-level horizontal metadata
    p_hier_vmd: float = 0.0                   # two-level vertical metadata
    p_nested: float = 0.0                     # tables containing nested cells
    header_noise: float = 0.3                 # synonym headers (schema noise)
    caption_in_topic: bool = True

    def scaled(self, n_tables: int) -> "DatasetProfile":
        from dataclasses import replace

        return replace(self, n_tables=n_tables)


@dataclass
class CorpusStats:
    """Aggregate structural statistics of a generated corpus."""

    n_tables: int = 0
    n_columns: int = 0
    n_rows: int = 0
    n_non_relational: int = 0
    n_nested: int = 0
    n_with_vmd: int = 0
    n_hierarchical: int = 0
    entity_counts: dict[str, int] = field(default_factory=dict)

    @property
    def avg_rows(self) -> float:
        return self.n_rows / self.n_tables if self.n_tables else 0.0

    @property
    def avg_cols(self) -> float:
        return self.n_columns / self.n_tables if self.n_tables else 0.0

    @property
    def frac_non_relational(self) -> float:
        return self.n_non_relational / self.n_tables if self.n_tables else 0.0



class CorpusGenerator:
    """Generate a corpus of tables from a profile, deterministically."""

    def __init__(self, profile: DatasetProfile, seed: int = 0):
        self.profile = profile
        self.seed = seed

    def generate(self) -> list[Table]:
        rng = np.random.default_rng(self.seed)
        profile = self.profile
        tables: list[Table] = []
        for i in range(profile.n_tables):
            schema = profile.topics[i % len(profile.topics)]
            tables.append(self._one_table(rng, schema))
        rng.shuffle(tables)
        return tables

    # ------------------------------------------------------------------
    def _one_table(self, rng: np.random.Generator,
                   schema: TopicSchema) -> Table:
        profile = self.profile
        n_rows = int(rng.integers(profile.rows[0], profile.rows[1] + 1))
        n_cols = int(rng.integers(profile.extra_cols[0],
                                  min(profile.extra_cols[1], len(schema.concepts)) + 1))
        concept_ids = sorted(
            rng.choice(len(schema.concepts), size=n_cols, replace=False).tolist()
        )
        concepts = [schema.concepts[i] for i in concept_ids]

        data: list[list] = []
        entities: list[list[str | None]] = []
        for _ in range(n_rows):
            row, entity_row = [], []
            for concept in concepts:
                text, entity = concept.generate(rng)
                row.append(text)
                entity_row.append(entity)
            data.append(row)
            entities.append(entity_row)

        header_rows = self._hmd(rng, schema, concepts)
        header_cols = self._vmd(rng, schema, n_rows)
        if rng.random() < profile.p_nested:
            self._nest_cells(rng, schema, data, entities)

        return Table(
            caption=schema.caption(rng),
            header_rows=header_rows,
            data=data,
            header_cols=header_cols,
            topic=schema.topic,
            column_concepts=[c.name for c in concepts],
            entity_types=entities,
            source=profile.name,
        )

    def _hmd(self, rng: np.random.Generator, schema: TopicSchema,
             concepts: list[Concept]) -> list[list[str | None]]:
        labels = [c.header_label(rng, self.profile.header_noise) for c in concepts]
        if rng.random() >= self.profile.p_hier_hmd or len(concepts) < 2:
            return [labels]
        # Two-level HMD: split the columns into contiguous parent groups.
        n_groups = int(rng.integers(1, min(3, len(concepts)) + 1))
        cuts = sorted(rng.choice(range(1, len(concepts)), size=n_groups - 1,
                                 replace=False).tolist()) if n_groups > 1 else []
        bounds = [0] + cuts + [len(concepts)]
        parent: list[str | None] = [None] * len(concepts)
        group_names = list(schema.hmd_groups)
        rng.shuffle(group_names)
        for g, start in enumerate(bounds[:-1]):
            parent[start] = group_names[g % len(group_names)]
        return [parent, labels]

    def _vmd(self, rng: np.random.Generator, schema: TopicSchema,
             n_rows: int) -> list[list[str | None]] | None:
        profile = self.profile
        if not schema.vmd_pool or rng.random() >= profile.p_vmd:
            return None
        pool = list(schema.vmd_pool)
        labels = [pool[i % len(pool)] for i in range(n_rows)]
        if rng.random() >= profile.p_hier_vmd or not schema.vmd_groups:
            return [labels]
        # Two-level VMD: a parent label spanning all rows (e.g. "Patient
        # Cohort" over the cohort names, as in Figure 1).
        parent: list[str | None] = [None] * n_rows
        parent[0] = str(rng.choice(list(schema.vmd_groups)))
        return [parent, labels]

    def _nest_cells(self, rng: np.random.Generator, schema: TopicSchema,
                    data: list[list], entities: list[list]) -> None:
        """Replace 1-2 cells with small nested tables with their own HMD."""
        n_rows, n_cols = len(data), len(data[0])
        numeric = [c for c in schema.concepts if c.is_numeric][:3]
        if not numeric:
            return
        for _ in range(int(rng.integers(1, 3))):
            i = int(rng.integers(n_rows))
            j = int(rng.integers(n_cols))
            headers = [c.name for c in numeric]
            values = [c.generate(rng)[0] for c in numeric]
            data[i][j] = Table(
                caption=f"{schema.topic} detail",
                header_rows=[headers],
                data=[values],
                topic=schema.topic,
            )
            entities[i][j] = None


def corpus_stats(tables: list[Table]) -> CorpusStats:
    """Structural summary used by Table 7 and the dataset docs."""
    stats = CorpusStats()
    for table in tables:
        stats.n_tables += 1
        stats.n_columns += table.n_cols
        stats.n_rows += table.n_rows
        if not table.is_relational:
            stats.n_non_relational += 1
        if table.has_nesting:
            stats.n_nested += 1
        if table.has_vmd:
            stats.n_with_vmd += 1
        if table.has_hierarchical_metadata:
            stats.n_hierarchical += 1
        for cell in table.all_cells():
            if cell.entity_type:
                stats.entity_counts[cell.entity_type] = (
                    stats.entity_counts.get(cell.entity_type, 0) + 1
                )
    return stats
