"""Declarative description of an index's parameters.

Every index — a single ``.npz`` file, a sharded directory, a cluster of
shard servers — boils down to the same facts: what *kind* of entries it
holds (table / column / raw vectors), the vector space (dim + per-kind
composition parameters such as ``variant``), the LSH geometry, the
embedder checkpoint the vectors came from, and the corpus provenance.
:class:`IndexSpec` names those facts once: every index keeps its
parameters in one, backends serialize it (the ``.npz`` payload's
``params``, the manifest's ``spec``), and :class:`ShardedIndex` stamps
every shard with a copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

#: The composition parameter each kind's vectors are built with, and
#: its default (``TableIndex`` / ``ColumnIndex`` build arguments).
_COMPOSITION = {"table": ("variant", "tblcomp1"),
                "column": ("composite", True)}


@dataclass
class IndexSpec:
    """Parameters shared by every shard (or the whole single file).

    ``extra`` carries kind-specific composition parameters — ``variant``
    for table indexes, ``composite`` for column indexes, filled with the
    kind's default when absent.  An unknown ``kind`` is refused here, so
    every reader (payload, manifest, shard server identity) refuses it
    the same way.
    """

    kind: str
    dim: int
    n_planes: int = 8
    n_bands: int = 4
    seed: int = 0
    model_id: str | None = None
    corpus: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    #: Keys of a saved ``params``/``spec`` dict that are spec fields
    #: rather than kind-specific extras.
    _BASE_KEYS = ("kind", "dim", "n_planes", "n_bands", "seed",
                  "model_id", "corpus")

    def __post_init__(self) -> None:
        from .index import index_class

        index_class(self.kind)
        if self.kind in _COMPOSITION:
            self.extra.setdefault(*_COMPOSITION[self.kind])

    @classmethod
    def from_params(cls, params: dict) -> "IndexSpec":
        """Build a spec from the flat dict both the ``.npz`` payload and
        the shard manifest store."""
        extra = {key: value for key, value in params.items()
                 if key not in cls._BASE_KEYS}
        return cls(kind=params["kind"], dim=params["dim"],
                   n_planes=params.get("n_planes", 8),
                   n_bands=params.get("n_bands", 4),
                   seed=params.get("seed", 0),
                   model_id=params.get("model_id"),
                   corpus=dict(params.get("corpus") or {}),
                   extra=extra)

    def to_params(self) -> dict:
        """Back to the flat shape (manifest / payload)."""
        return {"kind": self.kind, "dim": self.dim,
                "n_planes": self.n_planes, "n_bands": self.n_bands,
                "seed": self.seed, "model_id": self.model_id,
                "corpus": self.corpus, **self.extra}

    def copy(self) -> "IndexSpec":
        """An independent spec: no dict is shared with this one."""
        return replace(self, corpus=dict(self.corpus), extra=dict(self.extra))

    def create_index(self):
        """Instantiate an *empty* index of this spec's kind — the unit a
        sharded layout is assembled from."""
        from .index import index_class

        index = index_class(self.kind)(self.dim, n_planes=self.n_planes,
                                       n_bands=self.n_bands, seed=self.seed)
        index.spec = self.copy()
        return index

    def describe(self) -> str:
        """One-line human summary (``catalog list``, server logs):
        kind, dim, composition extras, and a shortened checkpoint."""
        bits = [f"kind={self.kind}", f"dim={self.dim}"]
        bits += [f"{key}={value}" for key, value in sorted(self.extra.items())]
        if self.model_id is not None:
            bits.append(f"model={self.model_id[:12]}")
        return " ".join(bits)

    def signature(self) -> dict:
        """What two indexes must agree on to hold vectors from the same
        space: kind, dim, kind-specific composition params, and — when
        known — the source checkpoint.  LSH geometry and corpus
        provenance are deliberately absent: a merge re-hashes incoming
        vectors through the target's own hyperplanes and unions the
        provenance."""
        return {"kind": self.kind, "dim": self.dim,
                "model_id": self.model_id, **self.extra}
